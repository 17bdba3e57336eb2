"""Recursive dimension, sphere, and contractibility verification.

Validates:
    - cross polytopes of each dimension verify as spheres
    - icosahedron is a 2-sphere, its join with S0 a 3-sphere
    - negative cases: wheel (disk), solid grid, disjoint circles, figure eight
    - contractibility of cones and paths, non-contractibility of cycles
    - budget exhaustion surfaces as a resource_limit verdict
    - the Euler characteristic entry check agrees with the bare recursion
      and rejects tori and annuli without a search
"""

from itertools import combinations

import pytest

from levelgraph.core import SimplicialGraph, disjoint_union, join
from levelgraph.catalog import (cross_polytope, cycle, icosahedron, kuhn_grid,
                                octahedron, random_sphere, sixteen_cell, suspension, wheel)
from levelgraph.refine import barycentric
from levelgraph.topology import (_Budget, _Exhausted, _contractible, _sphere, clear_caches,
                                 components, is_contractible, is_dgraph, is_sphere)


def test_components():
    g = disjoint_union(cycle(3), cycle(4))
    assert components(g) == [(0, 1, 2), (3, 4, 5, 6)]
    assert components(SimplicialGraph(0, [])) == []


def test_cross_polytopes_are_spheres():
    for d in range(4):
        r = is_sphere(cross_polytope(d), d)
        assert r.ok, f"cross polytope dim {d}: {r.verdict}"
        assert r.verdict == "yes"


def test_icosahedron_is_2_sphere():
    assert is_sphere(icosahedron(), 2).ok


def test_join_with_s0_raises_dimension():
    s0 = cross_polytope(0)
    assert is_sphere(join(s0, icosahedron()), 3).ok


def test_random_spheres_verify():
    for seed in (1, 2, 3):
        g = random_sphere(seed, 1)
        assert is_sphere(g, 2).ok


def test_wheel_is_dgraph_with_boundary_rejected():
    # hub's unit sphere is a circle but rim spheres are paths
    r = is_dgraph(wheel(6), 2)
    assert r.verdict == "no"
    assert r.witness is not None


def test_solid_grid_not_a_surface():
    g = kuhn_grid(2, (2, 2))
    assert not is_dgraph(g, 2).ok


def test_disjoint_circles_not_a_sphere():
    g = disjoint_union(cycle(4), cycle(4))
    r = is_sphere(g, 1)
    assert r.verdict == "no"


def test_figure_eight_not_a_dgraph():
    # two cycles sharing vertex 0: its unit sphere is four isolated points
    edges = [(0, 1), (1, 2), (2, 0)]
    edges += [(0, 3), (3, 4), (4, 0)]
    g = SimplicialGraph(5, edges)
    assert not is_dgraph(g, 1).ok


def test_circle_is_1_sphere_iff_long_enough():
    assert is_sphere(cycle(4), 1).ok
    assert is_sphere(cycle(12), 1).ok
    assert not is_dgraph(cycle(3), 1).ok  # unit spheres fine but contractible


def test_contractible_cases():
    assert is_contractible(SimplicialGraph(1, [])).ok
    path = SimplicialGraph(4, [(0, 1), (1, 2), (2, 3)])
    assert is_contractible(path).ok
    assert is_contractible(wheel(6)).ok


def test_cycle_not_contractible():
    assert not is_contractible(cycle(5)).ok


def test_empty_graph_dimension():
    r = is_dgraph(SimplicialGraph(0, []), -1)
    assert r.ok


def test_budget_zero_gives_resource_limit():
    clear_caches()
    r = is_sphere(icosahedron(), 2, budget=0)
    assert r.verdict == "resource_limit"


def test_budget_large_enough_succeeds():
    clear_caches()
    r = is_sphere(octahedron(), 2, budget=10**6)
    assert r.ok
    assert r.expansions > 0


def flag_rp2():
    """Barycentric refinement of the 6-vertex RP^2, a flag 2-graph with chi = 1."""
    facets = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
              (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5)]
    faces = sorted({f for t in facets for k in (1, 2, 3) for f in combinations(t, k)})
    index = {f: i for i, f in enumerate(faces)}
    edges = [(index[a], index[b]) for a in faces for b in faces
             if len(a) < len(b) and set(a) <= set(b)]
    return SimplicialGraph(len(faces), edges)


def annulus(k):
    """Strip between two k-cycles a_i = i and b_i = k + i; chi = 0."""
    edges = []
    for i in range(k):
        j = (i + 1) % k
        edges += [(i, j), (k + i, k + j), (i, k + i), (i, k + j)]
    return SimplicialGraph(2 * k, edges)


def test_flag_rp2_fixture():
    g = flag_rp2()
    assert g.f_vector() == (31, 90, 60)
    assert is_dgraph(g, 2).ok


DIFF_BUDGET = 2000


def _bare(check, g, *args):
    clear_caches()
    try:
        ok = check(g, frozenset(range(g.n)), *args, _Budget(DIFF_BUDGET))
    except _Exhausted:
        return "resource_limit"
    return "yes" if ok else "no"


def _differential_cases():
    base = [(octahedron(), 2), (icosahedron(), 2), (sixteen_cell(), 3)]
    base += [(random_sphere(seed, 12), 2) for seed in (4, 5, 6)]
    spheres = [(cross_polytope(d), d) for d in range(5)] + base
    spheres += [(suspension(g), d + 1) for g, d in base]
    spheres += [(barycentric(g).graph, d) for g, d in [(cycle(4), 1)] + base[:4]]
    others = [wheel(n) for n in (5, 6, 9)]
    others += [kuhn_grid(1, (3,)), kuhn_grid(2, (3, 2)), kuhn_grid(3, (2, 2, 1)), flag_rp2()]
    for g, d in spheres:
        yield g, d
        yield g.induced(range(1, g.n)), d  # a ball: contractible, not a sphere
    for g in others:
        yield g, g.dimension()


def test_euler_entry_check_agrees_with_bare_recursion():
    decided = 0
    for g, d in _differential_cases():
        for bare, check, args in ((_bare(_sphere, g, d), is_sphere, (g, d)),
                                  (_bare(_contractible, g), is_contractible, (g,))):
            clear_caches()
            verdict = check(*args, budget=DIFF_BUDGET).verdict
            if bare != "resource_limit":
                decided += 1
                assert verdict == bare, (check.__name__, g.n, d, bare, verdict)
    assert decided >= 60


def test_torus_not_a_sphere_without_search():
    torus = kuhn_grid(2, (5, 5), periodic=True)
    clear_caches()
    r = is_sphere(torus, 2, budget=1000)
    assert r.verdict == "no"
    assert r.expansions == 0


def test_annulus_not_contractible_without_search():
    clear_caches()
    r = is_contractible(annulus(6))
    assert r.verdict == "no"
    assert r.expansions == 0
