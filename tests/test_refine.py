"""Barycentric refinement and function extension.

Validates:
    - vertex count equals total simplex count, Euler characteristic preserved
    - refined spheres stay spheres
    - edges are exactly the strict containment pairs
    - coloring by origin dimension is proper: edges join different dimensions
    - extension by simplex means commutes with affine maps
"""

from fractions import Fraction
import random

from levelgraph.core import euler_characteristic
from levelgraph.catalog import cross_polytope, cycle, icosahedron, octahedron, wheel
from levelgraph.refine import barycentric, extend_function
from levelgraph.topology import is_sphere


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
