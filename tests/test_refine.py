"""Barycentric refinement and function extension.

Validates:
    - vertex count equals total simplex count, Euler characteristic preserved
    - refined spheres stay spheres
    - edges are exactly the strict containment pairs
    - coloring by origin dimension is proper: edges join different dimensions
    - extension by simplex means commutes with affine maps
    - containment_graph and barycentric build the graphs their edge-list form
      built, bit for bit
"""

from fractions import Fraction
from itertools import combinations
import random

from levelgraph.core import SimplicialGraph, euler_characteristic
from levelgraph.catalog import cross_polytope, cycle, icosahedron, kuhn_grid, octahedron, wheel
from levelgraph.refine import barycentric, containment_graph, extend_function
from levelgraph.topology import is_sphere

from conftest import same_graph


def test_vertex_count_is_simplex_count():
    g = octahedron()
    r = barycentric(g)
    assert r.graph.n == sum(g.f_vector())  # 6 + 12 + 8 = 26


def test_euler_characteristic_preserved():
    for g in (octahedron(), icosahedron(), cycle(7), wheel(5)):
        r = barycentric(g)
        assert euler_characteristic(r.graph) == euler_characteristic(g)


def test_refined_sphere_is_sphere():
    r = barycentric(octahedron())
    assert is_sphere(r.graph, 2).ok


def test_origin_records_simplices():
    g = cycle(4)
    r = barycentric(g)
    dims = sorted(len(r.origin[v]) for v in range(r.graph.n))
    assert dims == [1, 1, 1, 1, 2, 2, 2, 2]


def test_edges_are_all_containment_pairs():
    r = barycentric(cross_polytope(3))
    pos = {s: i for i, s in enumerate(r.origin)}
    pairs = {(pos[a], pos[b]) for a in r.origin for b in r.origin if set(a) < set(b)}
    assert set(r.graph.edges()) == pairs  # faces come first, so pos[a] < pos[b]
    assert r.graph.labels == r.origin


def _containment_by_edges(origin, min_dim=0, coordinates=None):
    """refine.containment_graph as it was, through an edge list and the constructor."""
    index = {s: i for i, s in enumerate(origin)}
    edges = [(index[t], i) for i, s in enumerate(origin) for size in range(min_dim + 1, len(s))
             for t in combinations(s, size) if t in index]
    return SimplicialGraph(len(origin), edges, labels=origin, coordinates=coordinates)


def test_containment_graphs_match_the_edge_list_builder():
    rng = random.Random(4)
    parents = [octahedron(), cross_polytope(3), kuhn_grid(3, (3, 3, 2)),
               kuhn_grid(2, (4, 5), periodic=True), barycentric(cross_polytope(3)).graph]
    for g in parents:
        r = barycentric(g)
        centroids = None
        if g.coordinates is not None:
            dim = len(g.coordinates[0])
            centroids = [tuple(sum(g.coordinates[v][k] for v in s) / len(s) for k in range(dim))
                         for s in r.origin]
        assert same_graph(_containment_by_edges(r.origin, 0, centroids), r.graph)
        rebuilt = SimplicialGraph(r.graph.n, r.graph.edges(), r.graph.labels, r.graph.coordinates)
        assert (rebuilt.neighbors, rebuilt.labels, rebuilt.coordinates) == \
            (r.graph.neighbors, r.graph.labels, r.graph.coordinates)
        for min_dim in (1, 2):  # a level set's origin: some simplices of dimension >= min_dim
            origin = tuple(s for group in g.simplices()[min_dim:] for s in group
                           if rng.random() < 0.7)
            coords = [(float(i), 0.5) for i in range(len(origin))]
            assert same_graph(_containment_by_edges(origin, min_dim, coords),
                              containment_graph(origin, min_dim, coords))


def test_dimension_coloring_proper():
    g = icosahedron()
    r = barycentric(g)
    assert {len(s) for s in r.origin} == {1, 2, 3}
    for u, v in r.graph.edges():
        assert len(r.origin[u]) != len(r.origin[v])


def test_extension_mean_values():
    g = cycle(4)
    f = [Fraction(0), Fraction(2), Fraction(4), Fraction(6)]
    r = barycentric(g)
    ext = extend_function(f, r)
    for v in range(r.graph.n):
        s = r.origin[v]
        assert ext[v] == sum(f[u] for u in s) / len(s)


def test_extension_commutes_with_affine_maps():
    rng = random.Random(9)
    g = icosahedron()
    r = barycentric(g)
    f = [Fraction(rng.randint(-50, 50)) for _ in range(g.n)]
    a, b = Fraction(3, 7), Fraction(-5, 2)
    lhs = extend_function([a * x + b for x in f], r)
    rhs = tuple(a * x + b for x in extend_function(f, r))
    assert lhs == rhs


def test_double_refinement_grows():
    g = octahedron()
    r1 = barycentric(g)
    r2 = barycentric(r1.graph)
    assert r2.graph.n == sum(r1.graph.f_vector())
    assert euler_characteristic(r2.graph) == 2
