"""Core graph container and clique complex enumeration.

Validates:
    - adjacency/induced/unit sphere bookkeeping
    - clique enumeration against a subset-scan oracle
    - Euler characteristic, additivity, join formula
    - Zykov join building spheres from spheres
    - every name the package exports resolves and is listed once
"""

import random
from itertools import combinations

import pytest

import levelgraph
from levelgraph.core import SimplicialGraph, disjoint_union, euler_characteristic, join
from levelgraph.catalog import cross_polytope, cycle, icosahedron, octahedron, wheel
from levelgraph.errors import InputError

from conftest import brute_euler


def test_basic_accessors():
    g = SimplicialGraph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
    assert g.n == 4
    assert g.degree(2) == 3
    assert g.adjacent(0, 1) and not g.adjacent(0, 3)
    assert g.edges() == [(0, 1), (0, 2), (1, 2), (2, 3)]
    assert g.edge_count() == 4
    assert g.dimension() == 2


def test_rejects_self_loops_and_range():
    with pytest.raises(InputError):
        SimplicialGraph(3, [(0, 0)])
    with pytest.raises(InputError):
        SimplicialGraph(3, [(0, 5)])


def test_empty_graph():
    g = SimplicialGraph(0, [])
    assert g.dimension() == -1
    assert g.f_vector() == ()
    assert euler_characteristic(g) == 0


def test_simplices_match_subset_scan():
    rng = random.Random(7)
    for _ in range(10):
        n = rng.randint(3, 9)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
        g = SimplicialGraph(n, edges)
        by_dim = g.simplices()
        for k, group in enumerate(by_dim):
            expected = [s for s in combinations(range(n), k + 1)
                        if all(g.adjacent(u, v) for u, v in combinations(s, 2))]
            assert list(group) == expected, f"dimension {k} cliques differ"


def test_simplices_sorted_within_dimension():
    g = octahedron()
    for group in g.simplices():
        assert list(group) == sorted(group)


def test_f_vectors():
    assert octahedron().f_vector() == (6, 12, 8)
    assert icosahedron().f_vector() == (12, 30, 20)
    assert cross_polytope(3).f_vector() == (8, 24, 32, 16)
    assert cycle(5).f_vector() == (5, 5)


def test_euler_characteristic_golden():
    assert euler_characteristic(octahedron()) == 2
    assert euler_characteristic(icosahedron()) == 2
    assert euler_characteristic(cross_polytope(3)) == 0
    assert euler_characteristic(cycle(12)) == 0
    assert euler_characteristic(wheel(7)) == 1


def test_euler_matches_brute_force():
    rng = random.Random(3)
    for _ in range(8):
        n = rng.randint(2, 8)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.45]
        g = SimplicialGraph(n, edges)
        if g.dimension() >= 5:
            continue
        assert euler_characteristic(g) == brute_euler(g)


def test_disjoint_union_additive():
    a, b = octahedron(), cycle(6)
    u = disjoint_union(a, b)
    assert u.n == a.n + b.n
    assert euler_characteristic(u) == euler_characteristic(a) + euler_characteristic(b)


def test_join_euler_formula():
    # chi(A * B) = chi(A) + chi(B) - chi(A) * chi(B)
    rng = random.Random(11)
    for _ in range(6):
        na, nb = rng.randint(1, 5), rng.randint(1, 5)
        ea = [e for e in combinations(range(na), 2) if rng.random() < 0.5]
        eb = [e for e in combinations(range(nb), 2) if rng.random() < 0.5]
        a, b = SimplicialGraph(na, ea), SimplicialGraph(nb, eb)
        ca, cb = euler_characteristic(a), euler_characteristic(b)
        assert euler_characteristic(join(a, b)) == ca + cb - ca * cb


def test_join_of_spheres():
    from levelgraph.topology import is_sphere
    s0 = cross_polytope(0)
    s1 = cycle(4)
    assert is_sphere(join(s0, s0), 1).ok
    assert is_sphere(join(s0, s1), 2).ok
    assert is_sphere(join(s1, s1), 3).ok


def test_unit_sphere_octahedron():
    s = octahedron().unit_sphere(0)
    assert s.n == 4
    assert all(s.degree(v) == 2 for v in range(4))


def test_induced_labels_track_parent():
    g = octahedron()
    h = g.induced([1, 3, 4])
    assert h.n == 3
    assert [h.label_of(v) for v in range(3)] == [1, 3, 4]


def test_exports_resolve_once():
    names = levelgraph.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(levelgraph, name), name
