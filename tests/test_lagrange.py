"""Sign gradients, rank checks, Lagrange candidates, injectivity surrogate.

Validates:
    - gradient bit conventions and tie detection
    - dependency reporting over GF(2), including the pairwise-independent
      triple whose sum vanishes
    - regularity filtering: rank-passing pairs give circle loci at level 0
      on the 16-cell, median splits and equal pairs are rejected, and a
      level on a vertex value raises
    - the per-vertex bookkeeping of the rank check against a per-simplex
      scan: the same report, or the same first error, on seeded random
      functions with ties and level hits; a vertex in no top simplex
      never raises
    - candidate triangles against an edge-sign oracle, and a non-surface
      refused with the witness of 2-graph verification
    - the subset-sum injectivity surrogate and its 20-value cap, checked
      before any enumeration
"""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from levelgraph.core import SimplicialGraph
from levelgraph.catalog import (cross_polytope, icosahedron, octahedron, random_sphere,
                                sixteen_cell, wheel)
from levelgraph.errors import InputError, LevelHitsVertex, NotASurface, TieOnSimplex
from levelgraph.lagrange import (MaxRankReport, _gf2_dependent, lagrange_candidates,
                                 max_rank_check, sign_gradient, strong_injectivity_check)
from levelgraph.levelset import simultaneous_locus
from levelgraph.topology import is_dgraph

from conftest import random_injective


def k4():
    return SimplicialGraph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])


def test_sign_gradient_bits():
    vals = [Fraction(0), Fraction(2), Fraction(5)]
    g = sign_gradient(vals, (0, 1, 2), 0)
    assert g.bits == (1, 1)
    assert sign_gradient(vals, (0, 1, 2), 2).bits == (0, 0)


def test_opposite_function_complements():
    vals = [Fraction(x) for x in (3, -1, 7, 4)]
    neg = [-x for x in vals]
    a = sign_gradient(vals, (0, 1, 2, 3), 1).bits
    b = sign_gradient(neg, (0, 1, 2, 3), 1).bits
    assert all(x != y for x, y in zip(a, b))


def test_tie_detection():
    with pytest.raises(TieOnSimplex):
        sign_gradient([Fraction(1), Fraction(1), Fraction(2)], (0, 1, 2), 0)


def test_dependent_triple_reported():
    # <101>, <110>, <011> are pairwise independent but sum to zero
    f = [-1, 2, -3, 4]
    g = [-1, 5, 6, -7]
    h = [-1, -2, 8, 9]
    r = max_rank_check(k4(), [f, g, h])
    assert not r.ok
    assert r.dependent == (0, 1, 2)
    assert r.root == 0


def test_single_function_passes(rng):
    g = sixteen_cell()
    f = [x - 500000 for x in random_injective(rng, g.n)]
    assert max_rank_check(g, [f]).ok


def test_identical_pair_fails():
    g = sixteen_cell()
    f = [5, -1, -2, -3, -4, -6, -7, -8]
    r = max_rank_check(g, [f, f])
    assert not r.ok
    assert r.dependent == (0, 1)


def test_median_split_fails_edge_condition():
    # both splits 2-2 yet different: every root sees independent gradients,
    # only the crossing-edge count exposes the surplus triangles
    f = [1, 2, -1, -2]
    h = [1, -1, 2, -2]
    r = max_rank_check(k4(), [f, h])
    assert not r.ok
    assert r.dependent == (0, 1)


def test_rank_pass_implies_circle_locus():
    g = sixteen_cell()
    hits = 0
    for seed in range(1500):
        rng = random.Random(seed)
        mags = rng.sample(range(1, 10**6), 2 * g.n)
        f = [m if rng.random() < 0.5 else -m for m in mags[:g.n]]
        h = [m if rng.random() < 0.5 else -m for m in mags[g.n:]]
        if not max_rank_check(g, [f, h]).ok:
            continue
        locus = simultaneous_locus(g, [f, h], [0, 0])
        assert is_dgraph(locus.graph, 1).ok, f"seed {seed}"
        hits += locus.graph.n > 0
    assert hits >= 3  # nonempty regular loci do occur


def test_level_aware_check():
    g = sixteen_cell()
    f = [105, 99, 98, 97, 96, 94, 93, 92]   # positive cap at vertex 0 over level 100
    h = [89, 109, 88, 87, 86, 85, 84, 83]   # positive cap at vertex 1 over level 100
    assert max_rank_check(g, [f, h], [100, 100]).ok
    locus = simultaneous_locus(g, [f, h], [100, 100])
    assert locus.graph.n == 8
    assert is_dgraph(locus.graph, 1).ok
    with pytest.raises(LevelHitsVertex):
        max_rank_check(k4(), [[5, -1, 3, -4]], [3])


def _max_rank_by_simplex(g, fs, levels=None):
    """The rank check as a per-simplex scan: every top simplex compares the
    values on it for ties, then against each level, then for sides."""
    functions = [[Fraction(x) for x in f] for f in fs]
    k = len(functions)
    cs = [Fraction(0)] * k if levels is None else [Fraction(c) for c in levels]
    checked = 0
    for s in g.simplices()[-1]:
        for vals in functions:
            seen = {}
            for v in s:
                if vals[v] in seen:
                    raise TieOnSimplex(s, (seen[vals[v]], v))
                seen[vals[v]] = v
        sides = []
        for vals, c in zip(functions, cs):
            for v in s:
                if vals[v] == c:
                    raise LevelHitsVertex(v, c)
            sides.append(tuple(vals[v] > c for v in s))
        if not all(len(set(side)) == 2 for side in sides):
            continue
        above = [sum(bit << j for j, bit in enumerate(side)) for side in sides]
        full = (1 << len(s)) - 1
        for r, root in enumerate(s):
            vectors = [m ^ full if side[r] else m for m, side in zip(above, sides)]
            checked += 1
            dep = _gf2_dependent(vectors)
            if dep is not None:
                return MaxRankReport(False, s, root, tuple(dep), checked)
        if k >= 2:
            crossing = [e for e in combinations(range(len(s)), 2)
                        if all(side[e[0]] != side[e[1]] for side in sides)]
            checked += 1
            if len(crossing) > 1:
                return MaxRankReport(False, s, s[crossing[1][0]], tuple(range(k)), checked)
    return MaxRankReport(True, checked=checked)


def _outcome(check, *args):
    try:
        return check(*args)
    except (TieOnSimplex, LevelHitsVertex) as e:
        return type(e).__name__, str(e)


def test_max_rank_check_matches_a_per_simplex_scan():
    graphs = [k4(), octahedron(), icosahedron(), sixteen_cell(), cross_polytope(4),
              wheel(6), random_sphere(5, 6)]
    rng = random.Random("max-rank/per-simplex")
    seen = set()
    for _ in range(600):
        g = rng.choice(graphs)
        k = rng.randint(1, 3)
        span = rng.choice((4, 12, 10 ** 6))  # narrow spans tie on simplices and hit levels
        fs = [[Fraction(rng.randint(-span, span), rng.choice((1, 1, 3))) for _ in range(g.n)]
              for _ in range(k)]
        if rng.random() < 0.3:
            levels = None
        else:
            levels = [rng.choice(f) if rng.random() < 0.3 else Fraction(rng.randint(-span, span))
                      for f in fs]
        want = _outcome(_max_rank_by_simplex, g, fs, levels)
        assert _outcome(max_rank_check, g, fs, levels) == want, (g.n, fs, levels)
        seen.add(want[0] if isinstance(want, tuple) else want.ok)
    # every kind of outcome is drawn: a pass, a failure and both errors
    assert seen == {True, False, "TieOnSimplex", "LevelHitsVertex"}


def test_max_rank_check_ignores_a_vertex_in_no_top_simplex():
    # a triangle with a pendant edge: the level hits only the pendant vertex 3
    g = SimplicialGraph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    f = [Fraction(-1), Fraction(1), Fraction(2), Fraction(0)]
    r = max_rank_check(g, [f])
    assert r == _max_rank_by_simplex(g, [f]) == MaxRankReport(True, checked=3)
    # and a tie on the pendant edge is no tie on a top simplex
    assert max_rank_check(g, [[-1, 1, 2, 2]], [0]).ok


def test_candidates_all_triangles_for_equal_functions():
    g = octahedron()
    f = list(range(6))
    cands = lagrange_candidates(g, f, f)
    assert len(cands) == 8


def test_candidates_empty_for_negated_function():
    g = octahedron()
    f = list(range(6))
    assert lagrange_candidates(g, f, [-x for x in f]) == []


def test_candidates_match_edge_sign_oracle(rng):
    g = icosahedron()
    f = random_injective(rng, g.n)
    h = random_injective(rng, g.n)
    got = lagrange_candidates(g, f, h)
    expected = []
    for t in g.simplices()[2]:
        hit = False
        for r in t:
            rest = [v for v in t if v != r]
            if all((f[v] > f[r]) == (h[v] > h[r]) for v in rest):
                hit = True
        if hit:
            expected.append(t)
    assert got == expected


def test_candidates_refuse_a_non_surface_naming_the_witness():
    # a 2-dimensional disc: the rim vertex 1 has the path 6-0-2 as its unit sphere
    g = wheel(7)
    assert is_dgraph(g, 2).witness == 1
    with pytest.raises(NotASurface, match=r"^2-graph verification said no \(witness 1\)$"):
        lagrange_candidates(g, list(range(7)), list(range(7, 0, -1)))


def test_injectivity_global():
    g = octahedron()
    ok = strong_injectivity_check(g, [[1, 2, 3, 4, 5, 6]])
    assert ok.passed and ok.surrogate
    bad = strong_injectivity_check(g, [[1, 2, 3, 4, 5, 1]])
    assert not bad.passed


def test_injectivity_per_simplex_subset_sums():
    g = octahedron()
    # 1 + 2 = 3 collides on any triangle containing those values
    f = [1, 2, 3, 10, 20, 40]
    r = strong_injectivity_check(g, [f], scope="per_simplex")
    assert not r.passed
    good = strong_injectivity_check(g, [[1, 2, 4, 8, 16, 32]], scope="per_simplex")
    assert good.passed


def test_injectivity_random_rationals(rng):
    g = octahedron()
    f = [Fraction(rng.getrandbits(48) + 1, rng.getrandbits(16) + 1) for _ in range(6)]
    h = [Fraction(rng.getrandbits(48) + 1, rng.getrandbits(16) + 1) for _ in range(6)]
    assert strong_injectivity_check(g, [f, h]).passed
    assert strong_injectivity_check(g, [f, h], scope="per_simplex").passed


def _subset_sum_failures(g, fs):
    """The per-simplex failures by definition: every subset sum from scratch."""
    failures = []
    for group in g.simplices():
        for s in group:
            values = [Fraction(f[v]) for f in fs for v in s]
            denom = math.lcm(*(x.denominator for x in values))
            ints = [int(x * denom) for x in values]
            first = {}
            for mask in range(1 << len(ints)):
                total = sum(x for i, x in enumerate(ints) if mask >> i & 1)
                if total in first:
                    failures.append((s, first[total], mask))
                    break
                first[total] = mask
    return tuple(failures)


@pytest.mark.parametrize("family", ["wide", "narrow", "signed"])
def test_injectivity_per_simplex_matches_definition(family):
    rng = random.Random(f"subset-sums/{family}")
    for g in (octahedron(), icosahedron(), sixteen_cell()):
        for k in (1, 2, 3):
            if (g.dimension() + 1) * k > 12:
                continue
            if family == "wide":  # passes: sums of wide random rationals do not meet
                fs = [[Fraction(rng.getrandbits(40) + 1, rng.getrandbits(12) + 1)
                       for _ in range(g.n)] for _ in range(k)]
            elif family == "narrow":  # fails on most simplices
                fs = [[rng.randint(1, 12) for _ in range(g.n)] for _ in range(k)]
            else:  # zeros, negatives and halves
                fs = [[Fraction(rng.randint(-9, 9), rng.choice((1, 2)))
                       for _ in range(g.n)] for _ in range(k)]
            r = strong_injectivity_check(g, fs, scope="per_simplex")
            want = _subset_sum_failures(g, fs)
            assert r.failures == want and r.passed == (not want)
            if family == "wide":
                assert r.passed
            if family == "narrow" and k > 1:
                assert not r.passed


def test_injectivity_per_simplex_cap_checked_before_enumerating():
    fs = [[10 * i + v + 1 for v in range(6)] for i in range(10)]
    with pytest.raises(InputError, match="limited to 20 values, a top simplex has 30"):
        strong_injectivity_check(octahedron(), fs, scope="per_simplex")
