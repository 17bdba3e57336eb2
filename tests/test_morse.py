"""Poincare-Hopf indices, curvature, central surfaces and index expectation.

Validates:
    - min/max/saddle/monkey-saddle indices and classifications
    - index sums equal chi for random injective functions
    - curvature goldens and Gauss-Bonnet totals, vanishing in odd dimension
    - one-pass curvature equals the f-vector formula over every unit sphere
    - central surface identities against the symmetric index
    - exact index expectation equals curvature; Monte Carlo approaches it
    - indices, sums, expectations and central surfaces read from vertex sets
      of the parent equal those of a copy that builds every unit sphere and
      sublevel set as an induced graph, with the complex cached and not
    - the sides of a vertex decided on integers agree with Fraction compares
"""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from levelgraph.catalog import (cross_polytope, cycle, icosahedron, kuhn_grid, octahedron,
                                random_sphere, sixteen_cell, suspension, wheel)
from levelgraph.core import SimplicialGraph
from levelgraph.core import euler_characteristic
from levelgraph.refine import barycentric
from levelgraph.errors import InputError, NotLocallyInjective
from levelgraph import morse
from levelgraph.morse import (central_surface, curvature, index_expectation,
                              index_expectation_exact, ph_index, ph_sum_check)
from levelgraph.levelset import level_surface
from levelgraph.topology import is_contractible, is_dgraph, is_sphere

from conftest import hard_rationals, random_injective, same_graph


def test_min_and_max():
    g = octahedron()
    f = list(range(6))
    lo = ph_index(g, f, 0)
    hi = ph_index(g, f, 5)
    assert (lo.index, lo.classification) == (1, "local_min")
    assert (hi.index, hi.classification) == (1, "local_max")
    assert lo.sublevel.n == 0


def test_saddle():
    # hub of a wheel, two descending sectors on the rim
    g = wheel(7)
    f = [0, -1, 10, -2, 11, 13, 12]
    r = ph_index(g, f, 0)
    assert r.index == -1
    assert r.classification == "saddle"


def test_monkey_saddle():
    # three descending sectors double the negative index
    g = wheel(7)
    f = [0, -1, 10, -2, 11, -3, 12]
    r = ph_index(g, f, 0)
    assert r.index == -2
    assert r.classification == "saddle"


def test_rejects_ties():
    g = octahedron()
    with pytest.raises(NotLocallyInjective):
        ph_index(g, [1, 1, 2, 3, 4, 5], 0)


def test_rejects_tie_at_x_naming_first_neighbour():
    g = icosahedron()
    f = list(range(g.n))
    a, b = sorted(g.neighbors[0])[1:3]
    f[a] = f[b] = f[0]
    with pytest.raises(NotLocallyInjective) as e:
        ph_index(g, f, 0)
    assert e.value.edge == (0, a)


def _report(r):
    s = r.sublevel
    return (r.vertex, r.index, r.symmetric, r.classification,
            s.n, s.edges(), s.labels, s.coordinates)


def test_ties_between_neighbours_are_allowed(rng):
    # ph_index reads only the side of f(x) each neighbour is on, so a tie
    # between two neighbours on the same side changes nothing
    for g in (octahedron(), icosahedron(), sixteen_cell(), kuhn_grid(2, (3, 3))):
        for x in range(g.n):
            f = random_injective(rng, g.n)
            nbrs = sorted(g.neighbors[x])
            for side in (True, False):
                group = [y for y in nbrs if (f[y] < f[x]) == side]
                if len(group) < 2:
                    continue
                a, b = rng.sample(group, 2)
                tied, broken = list(f), list(f)
                tied[b] = broken[b] = f[a]
                # nudge the tie apart without crossing f(x)
                broken[b] += (f[x] - f[a]) / 2
                assert _report(ph_index(g, tied, x)) == _report(ph_index(g, broken, x))


def test_sum_check_names_first_tied_edge(rng):
    for g in (octahedron(), icosahedron(), sixteen_cell(), kuhn_grid(2, (3, 3))):
        edges = g.edges()
        for _ in range(10):
            f = random_injective(rng, g.n)
            tied = rng.sample(edges, 2)
            for u, v in tied:
                f[v] = f[u]
            first = next(e for e in edges if f[e[0]] == f[e[1]])
            with pytest.raises(NotLocallyInjective) as e:
                ph_sum_check(g, f)
            assert e.value.edge == first


def test_index_sum_random(rng):
    for g in (octahedron(), icosahedron(), sixteen_cell(), wheel(7)):
        for _ in range(5):
            f = random_injective(rng, g.n)
            total, chi = ph_sum_check(g, f)
            assert total == chi == euler_characteristic(g)


def test_curvature_goldens():
    oct_k = curvature(octahedron())
    assert set(oct_k.values) == {Fraction(1, 3)}
    assert oct_k.total == 2
    ico_k = curvature(icosahedron())
    assert set(ico_k.values) == {Fraction(1, 6)}
    assert ico_k.total == 2


def test_gauss_bonnet_everywhere(rng):
    for g in (octahedron(), icosahedron(), sixteen_cell(), wheel(7),
              kuhn_grid(2, (2, 3))):
        assert curvature(g).total == euler_characteristic(g)


def _curvature_of_unit_spheres(g):
    """K(x) = 1 - v0/2 + v1/3 - ... over the f-vector of each unit sphere S(x)."""
    out = []
    for x in range(g.n):
        k = Fraction(1)
        for dim, count in enumerate(g.induced(g.neighbors[x]).f_vector()):
            k += Fraction((-1) ** (dim + 1) * count, dim + 2)
        out.append(k)
    return tuple(out)


def test_curvature_matches_the_unit_sphere_formula():
    graphs = [SimplicialGraph(0, []), SimplicialGraph(3, [(0, 1)]), cycle(5), wheel(7),
              octahedron(), icosahedron(), sixteen_cell(), cross_polytope(4),
              kuhn_grid(2, (2, 3)), barycentric(sixteen_cell()).graph,
              kuhn_grid(3, (5, 5, 5), periodic=True)]
    graphs += [random_sphere(seed, 40) for seed in range(4)]
    graphs += [suspension(random_sphere(seed, 20)) for seed in range(2)]
    for g in graphs:
        expected = _curvature_of_unit_spheres(g)
        k = curvature(g)
        assert k.values == expected
        assert k.total == sum(expected, Fraction(0)) == euler_characteristic(g)


def test_odd_dimension_flat():
    k = curvature(sixteen_cell())
    assert set(k.values) == {Fraction(0)}


def test_torus_flat():
    torus = kuhn_grid(2, (4, 4), periodic=True)
    k = curvature(torus)
    assert set(k.values) == {Fraction(0)}
    assert euler_characteristic(torus) == 0


def test_central_surface_identity(rng):
    # even d: j = 1 - chi(B)/2; odd d: j = -chi(B)/2
    for g, even in ((octahedron(), True), (sixteen_cell(), False)):
        f = random_injective(rng, g.n)
        d = g.dimension()
        for x in range(g.n):
            b = central_surface(g, f, x)
            r = ph_index(g, f, x)
            chi_b = euler_characteristic(b.graph)
            expected = 1 - Fraction(chi_b, 2) if even else -Fraction(chi_b, 2)
            assert r.symmetric == expected
            assert is_dgraph(b.graph, d - 2).ok


def test_exact_expectation_is_curvature():
    g = icosahedron()
    k = curvature(g)
    for x in range(g.n):
        assert index_expectation_exact(g, x) == k.values[x]


def test_monte_carlo_expectation():
    g = sixteen_cell()
    est, err = index_expectation(g, 0, 2000, seed=7)
    assert err >= 0
    assert abs(float(est) - 0.0) <= max(3 * err, 1e-12)


def test_expectation_reproducible():
    g = icosahedron()
    a = index_expectation(g, 3, 500, seed=11)
    b = index_expectation(g, 3, 500, seed=11)
    assert a == b


# -- the induced-graph versions these functions had, as a reference -----------


def _induced_split(g, values, x):
    fx = values[x]
    nbrs = sorted(g.neighbors[x])
    below = []
    for i, y in enumerate(nbrs):
        if values[y] == fx:
            raise NotLocallyInjective((min(x, y), max(x, y)), fx)
        if values[y] < fx:
            below.append(i)
    return g.induced(nbrs), below


def _induced_symmetric_value(sphere, chi_cache, subset):
    lower = frozenset(subset)
    upper = frozenset(range(sphere.n)) - lower
    vals = []
    for part in (lower, upper):
        chi = chi_cache.get(part)
        if chi is None:
            chi = chi_cache[part] = euler_characteristic(sphere.induced(part))
        vals.append(1 - chi)
    return Fraction(vals[0] + vals[1], 2)


def _induced_ph_index(g, f, x):
    sphere, below = _induced_split(g, [Fraction(v) for v in f], x)
    lower = sphere.induced(below)
    index = 1 - euler_characteristic(lower)
    symmetric = _induced_symmetric_value(sphere, {frozenset(below): 1 - index}, below)
    d = g.dimension()
    if is_sphere(lower, d - 1).ok:
        kind = "local_max"
    elif lower.n == 0:
        kind = "local_min"
    elif d == 2 and index < 0:
        kind = "saddle"
    elif is_contractible(lower).ok:
        kind = "regular"
    else:
        kind = "unclassified"
    return lower, index, symmetric, kind


def _induced_ph_sum_check(g, f):
    values = [Fraction(v) for v in f]
    total = 0
    for x in range(g.n):
        sphere, below = _induced_split(g, values, x)
        total += 1 - euler_characteristic(sphere.induced(below))
    return total, euler_characteristic(g)


def _induced_central_surface(g, f, x):
    values = [Fraction(v) for v in f]
    sphere, _ = _induced_split(g, values, x)
    return level_surface(sphere, [values[v] for v in sorted(g.neighbors[x])], values[x])


def _induced_index_expectation(g, x, samples, seed):
    rng = random.Random(seed)
    sphere = g.induced(g.neighbors[x])
    ball = sphere.n + 1
    chi_cache = {}
    total = Fraction(0)
    total_sq = 0.0
    for _ in range(samples):
        order = list(range(ball))
        rng.shuffle(order)
        rank_x = order[ball - 1]
        subset = [v for v in range(sphere.n) if order[v] < rank_x]
        j = _induced_symmetric_value(sphere, chi_cache, subset)
        total += j
        total_sq += float(j) * float(j)
    mean = total / samples
    var = max(total_sq / samples - float(mean) ** 2, 0.0)
    return mean, math.sqrt(var / samples)


def _induced_index_expectation_exact(g, x):
    sphere = g.induced(g.neighbors[x])
    deg = sphere.n
    chi_cache = {}
    total = Fraction(0)
    for size in range(deg + 1):
        level_sum = Fraction(0)
        for subset in combinations(range(deg), size):
            level_sum += _induced_symmetric_value(sphere, chi_cache, subset)
        total += level_sum / math.comb(deg, size)
    return total / (deg + 1)


# catalog graphs, seeded 2-spheres, suspensions (two poles adjacent to every
# other vertex) and a barycentric refinement
VERTEX_SET_GRAPHS = {
    "octahedron": octahedron, "icosahedron": icosahedron, "16-cell": sixteen_cell,
    "wheel(7)": lambda: wheel(7), "cross_polytope(4)": lambda: cross_polytope(4),
    "grid": lambda: kuhn_grid(2, (3, 3)), "torus": lambda: kuhn_grid(2, (4, 4), periodic=True),
    "random_sphere(1, 40)": lambda: random_sphere(1, 40),
    "random_sphere(2, 80)": lambda: random_sphere(2, 80),
    "suspension(random_sphere(3, 30))": lambda: suspension(random_sphere(3, 30)),
    "suspension(suspension(cycle(9)))": lambda: suspension(suspension(cycle(9))),
    "barycentric(16-cell)": lambda: barycentric(sixteen_cell()).graph,
}


@pytest.mark.parametrize("cached", [False, True], ids=["uncached", "cached"])
@pytest.mark.parametrize("name", VERTEX_SET_GRAPHS)
def test_vertex_sets_match_the_induced_graphs(name, cached):
    rng = random.Random(name)
    ref = VERTEX_SET_GRAPHS[name]()
    f = random_injective(rng, ref.n)

    def graph():
        g = VERTEX_SET_GRAPHS[name]()
        if cached:
            g.simplices()
        return g

    assert ph_sum_check(graph(), f) == _induced_ph_sum_check(ref, f)
    g = graph()
    for x in range(g.n):
        r = ph_index(g, f, x)
        lower, index, symmetric, kind = _induced_ph_index(ref, f, x)
        assert (r.vertex, r.index, r.symmetric, r.classification) == (x, index, symmetric, kind)
        # the same graph; built in one step rather than two, its neighbour
        # sets can iterate in another order, so they are compared as sets
        s = r.sublevel
        assert (s.n, s.labels, s.coordinates) == (lower.n, lower.labels, lower.coordinates)
        assert list(map(set, s.neighbors)) == list(map(set, lower.neighbors))
        b, want = central_surface(g, f, x), _induced_central_surface(ref, f, x)
        assert same_graph(want.graph, b.graph)
        assert (b.origin, b.functions, b.levels) == (want.origin, want.functions, want.levels)
    by_degree = sorted(range(g.n), key=g.degree)
    for x in {by_degree[0], by_degree[-1], 0}:
        seed = rng.randrange(1000)
        assert index_expectation(g, x, 40, seed) == _induced_index_expectation(ref, x, 40, seed)
        if g.degree(x) <= 12:
            assert index_expectation_exact(g, x) == _induced_index_expectation_exact(ref, x)
        else:
            with pytest.raises(InputError):
                index_expectation_exact(g, x)
    assert (g._simplices is not None) == cached


def test_integer_sides_of_a_vertex_match_fraction_compares():
    """_split decides f(y) - f(x) on numerators and denominators: the same
    sublevel, and the same first tie, as Fraction compares, on values of
    both signs with mixed denominators and huge numerators."""
    rng = random.Random(2026)
    for g in (octahedron(), cross_polytope(3), suspension(random_sphere(4, 20))):
        for _ in range(30):
            values = hard_rationals(rng, g.n)
            x = rng.randrange(g.n)
            if rng.random() < 0.3:  # a tie with a neighbour
                values[rng.choice(sorted(g.neighbors[x]))] = values[x]
            try:
                _, below = _induced_split(g, values, x)
            except NotLocallyInjective as e:
                with pytest.raises(NotLocallyInjective) as got:
                    morse._split(g, values, x)
                assert (got.value.edge, got.value.value) == (e.edge, e.value)
            else:
                nbrs = sorted(g.neighbors[x])
                assert morse._split(g, values, x) == [nbrs[i] for i in below]


@pytest.mark.parametrize("x", [-1, 6])
@pytest.mark.parametrize("call", [
    lambda g, x: ph_index(g, range(6), x),
    lambda g, x: central_surface(g, range(6), x),
    lambda g, x: index_expectation(g, x, 10, 0),
    lambda g, x: index_expectation_exact(g, x),
], ids=["ph_index", "central_surface", "index_expectation", "index_expectation_exact"])
def test_per_vertex_functions_reject_ids_out_of_range(call, x):
    """A negative id would index vertex n + x, and n would raise IndexError."""
    with pytest.raises(InputError, match=rf"vertex {x} is out of range for n=6"):
        call(octahedron(), x)
