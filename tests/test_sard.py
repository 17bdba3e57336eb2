"""Ordered level-set pipeline with stagewise function extension.

Validates:
    - the two-stage worked example on the octahedron, with exact rationals
    - order asymmetry of the antisymmetric eigenvector pair
    - stagewise excluded values exactly flag the incompatible levels
    - k=d pipelines ending in a 0-graph
    - perturbed levels and error reporting; a perturbed stage cuts the
      simplices its level moved up by 2^-64 cuts
    - support means and sorted value sets computed on integers equal Fraction
      sums and Fraction sorts: mixed and 2,000 prime denominators, huge
      numerators, floor-key ties; an empty support still raises
"""

import random
from fractions import Fraction
from itertools import chain

import pytest

from levelgraph.core import SimplicialGraph
from levelgraph.catalog import cross_polytope, octahedron
from levelgraph.errors import ConstantExtension, EmptyStage, IncompatibleLevel
from levelgraph.levelset import level_surface
from levelgraph.refine import barycentric
from levelgraph.sard import extend_by_support, sard_pipeline
from levelgraph.topology import is_dgraph

from conftest import gap_level, hard_rationals, paper_octahedron, random_injective


F = [13, 15, 17, 19, 1, 31]   # equator 13,15,17,19; poles 1 and 31


def test_first_stage_cycle():
    g = paper_octahedron()
    trace = sard_pipeline(g, [F, F], [2, Fraction(17, 2)])
    s1 = trace.stages[0]
    assert s1.surface.graph.n == 8
    assert s1.verdict.ok
    origins = set(s1.surface.origin)
    assert origins == {(0, 4), (1, 4), (2, 4), (3, 4),
                       (0, 1, 4), (0, 3, 4), (1, 2, 4), (2, 3, 4)}


def test_extended_values_exact():
    g = paper_octahedron()
    trace = sard_pipeline(g, [F, F], [2, Fraction(17, 2)])
    ext = trace.stages[1].input_values
    assert sorted(ext) == [7, 8, 9, Fraction(29, 3), 10, 11, 11, Fraction(37, 3)]


def test_literal_midpoint_average():
    # the edge (5,1) averages the pole with one equator vertex
    g = paper_octahedron()
    trace = sard_pipeline(g, [F, F], [2, Fraction(17, 2)])
    s1 = trace.stages[0]
    by_origin = {s1.surface.origin[v]: trace.stages[1].input_values[v]
                 for v in range(s1.surface.graph.n)}
    assert by_origin[(0, 4)] == 7            # (13 + 1) / 2
    assert by_origin[(0, 1, 4)] == Fraction(29, 3)
    assert by_origin[(1, 2, 4)] == 11        # (15 + 17 + 1) / 3


def test_triangle_means_resolve_to_eleven():
    # triangle means are (pair sum + 1)/3 over adjacent equator pairs; the
    # four pair sums always total 128, so the multiset {28, 32, 32, 36} is
    # forced and a 34 (mean 35/3) cannot occur under any relabeling
    g = paper_octahedron()
    trace = sard_pipeline(g, [F, F], [2, Fraction(17, 2)])
    ext = trace.stages[1].input_values
    assert Fraction(35, 3) not in ext
    assert sorted(x for x in ext if x.denominator == 3) == [
        Fraction(29, 3), Fraction(37, 3)]


def test_second_stage_zero_graph():
    g = paper_octahedron()
    trace = sard_pipeline(g, [F, F], [2, Fraction(17, 2)])
    s2 = trace.stages[1]
    assert s2.surface.graph.edge_count() == 0
    assert s2.verdict.ok
    assert trace.all_regular


def test_excluded_values_are_exact():
    g = paper_octahedron()
    trace = sard_pipeline(g, [F, F], [2, Fraction(17, 2)])
    assert set(trace.stages[1].excluded) == {
        7, 8, 9, 10, 11, Fraction(29, 3), Fraction(37, 3)}


def test_incompatible_level_raises():
    g = paper_octahedron()
    with pytest.raises(IncompatibleLevel) as e:
        sard_pipeline(g, [F, F], [2, 10])
    assert e.value.stage == 2
    assert e.value.value == 10


def test_order_asymmetry_of_eigenvector_pair():
    g = octahedron()
    f2 = [-1, -2, -3, 3, 2, 1]
    f3 = [1, 2, -3, -3, 2, 1]
    with pytest.raises(IncompatibleLevel) as first:
        sard_pipeline(g, [f2, f3], [0, 0])
    with pytest.raises(IncompatibleLevel) as second:
        sard_pipeline(g, [f3, f2], [0, 0])
    assert first.value.stage == second.value.stage == 2
    assert len(first.value.witnesses) == 6
    assert len(second.value.witnesses) == 2


def test_perturb_recovers():
    g = paper_octahedron()
    trace = sard_pipeline(g, [F, F], [2, 10], perturb=True)
    assert not trace.stages[0].perturbed
    assert trace.stages[0].level == 2
    assert trace.stages[1].perturbed
    # the middle of the gap between 10 and the least stage value above it, 11
    assert trace.stages[1].level == Fraction(21, 2)


def assert_cut_as_by_a_tiny_step(trace, levels):
    """Each perturbed stage keeps the origin that its requested level plus
    2^-64 cuts from the stage's input, so moving to the middle of the gap
    cuts what a step far below any gap cuts."""
    current = trace.graph
    for stage, c in zip(trace.stages, levels):
        if stage.perturbed:
            tiny = level_surface(current, stage.input_values, Fraction(c) + Fraction(1, 2 ** 64))
            assert stage.surface.origin == tiny.origin
        current = stage.surface.graph


def test_perturbed_levels_cut_as_a_tiny_step_does(rng):
    g = paper_octahedron()
    trace = sard_pipeline(g, [F, F], [2, 10], perturb=True)
    assert_cut_as_by_a_tiny_step(trace, [2, 10])
    # small integer values and levels, so that most stages hit their value set
    g = cross_polytope(3)
    perturbed = 0
    for _ in range(40):
        fs = [[rng.randint(-2, 2) for _ in range(g.n)] for _ in range(3)]
        levels = [rng.randint(-1, 1) for _ in range(3)]
        try:
            trace = sard_pipeline(g, fs, levels, perturb=True)
        except (ConstantExtension, EmptyStage):
            continue
        assert_cut_as_by_a_tiny_step(trace, levels)
        perturbed += sum(stage.perturbed for stage in trace.stages)
    assert perturbed >= 10


def test_constant_extension():
    g = octahedron()
    with pytest.raises(ConstantExtension):
        sard_pipeline(g, [list(range(6)), [1] * 6], [Fraction(5, 2), 0])


def test_empty_stage():
    g = octahedron()
    with pytest.raises(EmptyStage):
        sard_pipeline(g, [list(range(6)), list(range(6))],
                      [Fraction(5, 2), Fraction(-100)])


def chained_levels(g, fs, rng):
    # choose each stage level inside a gap of the extended value set
    cs = [gap_level(fs[0], rng)]
    for i in range(1, len(fs)):
        trace = sard_pipeline(g, fs[:i], cs)
        ext = extend_by_support(
            [Fraction(x) for x in fs[i]], trace.stages[-1].support)
        cs.append(gap_level(ext, rng))
    return cs


def test_full_depth_pipeline(rng):
    g = cross_polytope(3)
    for _ in range(3):
        fs = [random_injective(rng, g.n) for _ in range(3)]
        cs = chained_levels(g, fs, rng)
        trace = sard_pipeline(g, fs, cs)
        last = trace.stages[-1]
        assert last.surface.graph.edge_count() == 0
        assert all(s.verdict.ok for s in trace.stages)


def test_supports_flatten_with_multiplicity():
    g = paper_octahedron()
    trace = sard_pipeline(g, [F, F], [2, Fraction(17, 2)])
    s1, s2 = trace.stages
    # stage 1 flattens the singletons (v,) of each origin simplex: the simplex
    assert s1.support == s1.surface.origin
    for v in range(s2.surface.graph.n):
        sup = s2.support[v]
        assert sup == tuple(sorted(w for u in s2.surface.origin[v] for w in s1.support[u]))
        assert len(sup) >= 2


def test_extend_by_support_mean():
    vals = [Fraction(0), Fraction(6), Fraction(12)]
    assert extend_by_support(vals, [(0, 1)]) == [Fraction(3)]
    assert extend_by_support(vals, [(1, 2, 2)]) == [Fraction(10)]


def test_stage_verdicts_on_random_spheres(rng):
    # two-stage pipelines on 2-spheres finish in 0-graphs
    g = octahedron()
    for _ in range(10):
        fs = [random_injective(rng, g.n), random_injective(rng, g.n)]
        cs = chained_levels(g, fs, rng)
        trace = sard_pipeline(g, fs, cs)
        assert all(s.verdict.ok for s in trace.stages)


# -- integer kernels against Fraction arithmetic ------------------------------


def _means_by_fractions(values, supports):
    """The mean of each support by Fraction sums, as the extension once was."""
    return [sum(values[v] for v in sup) / len(sup) for sup in supports]


def _primes(count):
    """The first count primes, by trial division over the primes found."""
    found = []
    p = 2
    while len(found) < count:
        if all(p % q for q in found if q * q <= p):
            found.append(p)
        p += 1
    return found


def test_support_means_match_fraction_sums():
    rng = random.Random(26)
    g = cross_polytope(3)
    values = hard_rationals(rng, g.n)
    simplices = [s for group in g.simplices() for s in group]
    multisets = [tuple(sorted(rng.choices(range(g.n), k=rng.randint(1, 12)))) for _ in range(200)]
    for supports in (simplices, multisets):
        got = extend_by_support(values, supports)
        assert got == _means_by_fractions(values, supports)
        assert all(type(x) is Fraction for x in got)
    # 2,000 distinct prime denominators, each support summed over its own lcm
    primes = _primes(2000)
    values = [Fraction(rng.randint(-10 ** 30, 10 ** 30), p) for p in primes]
    supports = [tuple(rng.choices(range(2000), k=rng.randint(1, 8))) for _ in range(2000)]
    supports.append(tuple(range(2000)))
    assert extend_by_support(values, supports) == _means_by_fractions(values, supports)


def test_support_means_take_ints_and_refuse_an_empty_support():
    assert extend_by_support([1, -2, 4], [(0, 1), (1, 2, 2), (0,)]) == [
        Fraction(-1, 2), Fraction(2), Fraction(1)]
    assert extend_by_support([1, Fraction(1, 3)], [(0, 1)]) == [Fraction(2, 3)]
    with pytest.raises(ZeroDivisionError):
        extend_by_support([Fraction(1)], [()])


def _tied_values(rng, n):
    """Values whose 2^64-scaled floors tie in runs: +-1/(2^200 + i) and
    c +- 1/(2^200 + i) for small c, among hard rationals and repeats."""
    out = []
    for _ in range(n):
        kind = rng.randrange(4)
        tiny = Fraction(rng.choice((-1, 1)), 2 ** 200 + rng.randrange(40))
        if kind == 0:
            out.append(tiny)
        elif kind == 1:
            out.append(rng.randint(-3, 3) + tiny)
        elif kind == 2 and out:
            out.append(rng.choice(out))
        else:
            out.extend(hard_rationals(rng, 1))
    return out


def test_stage_value_sets_are_sorted_as_fractions_sort():
    rng = random.Random(2026)
    g = barycentric(cross_polytope(3)).graph
    for _ in range(4):
        fs = [_tied_values(rng, g.n), _tied_values(rng, g.n)]
        first = sard_pipeline(g, fs[:1], [0], perturb=True)
        # a level on the median extended value, so stage 2 is perturbed to a gap
        ext = sorted(_means_by_fractions(fs[1], first.stages[0].support))
        c2 = ext[len(ext) // 2]
        trace = sard_pipeline(g, fs, [0, c2], perturb=True)
        for stage in trace.stages:
            assert stage.excluded == tuple(sorted(set(stage.input_values)))
            keys = {(x.numerator << 64) // x.denominator for x in stage.excluded}
            assert len(keys) < len(stage.excluded)  # the tie fallback ran
        s2 = trace.stages[1]
        assert s2.perturbed
        assert s2.level == (c2 + min(x for x in s2.input_values if x > c2)) / 2
