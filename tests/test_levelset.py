"""Level hypersurfaces, simultaneous loci, and surface triangulation.

Validates:
    - {f=c} on spheres gives circles / 2-spheres with known sizes
    - the surface graph's edges are exactly the containment pairs
    - LevelHitsVertex and constraint-count errors
    - simultaneous locus on the 16-cell: regular pair gives a circle
    - oriented triangle extraction and interpolated coordinates
    - the orienter gives the triangles and orientable flag of an orienter
      that indexes every edge's triangles
"""

from fractions import Fraction
from itertools import combinations

import pytest

from levelgraph.catalog import (cross_polytope, icosahedron, kuhn_grid, octahedron,
                                random_sphere, sixteen_cell, wheel)
from levelgraph.errors import DimensionExceeded, LevelHitsVertex, MissingCoordinates, NotASurface
from levelgraph.levelset import (interpolate_coordinates, level_surface,
                                 simultaneous_locus, surface_triangles)
from levelgraph.refine import barycentric
from levelgraph.topology import components, is_dgraph, is_sphere

from test_topology import flag_rp2


def test_octahedron_circle():
    g = octahedron()
    s = level_surface(g, list(range(6)), Fraction(5, 2))
    assert s.graph.n == 12
    assert is_sphere(s.graph, 1).ok


def test_near_minimum_gives_link_circle():
    g = octahedron()
    s = level_surface(g, list(range(6)), Fraction(1, 2))
    assert s.graph.n == 8
    assert is_sphere(s.graph, 1).ok


def test_icosahedron_two_circles():
    g = icosahedron()
    s = level_surface(g, list(range(12)), Fraction(11, 2))
    assert is_dgraph(s.graph, 1).ok
    assert sorted(len(c) for c in components(s.graph)) == [16, 20]
    assert not is_sphere(s.graph, 1).ok  # disconnected


def test_three_sphere_level_is_two_sphere():
    g = cross_polytope(3)
    s = level_surface(g, list(range(8)), Fraction(7, 2))
    assert s.graph.n == 50
    assert is_sphere(s.graph, 2).ok


def containment_pairs(origin):
    """Every pair of origin positions whose simplices are strictly nested."""
    return {(i, j) if i < j else (j, i)
            for i, a in enumerate(origin) for j, b in enumerate(origin) if set(a) < set(b)}


def test_edges_are_containment_pairs():
    s = level_surface(cross_polytope(3), list(range(8)), Fraction(7, 2))
    assert set(s.graph.edges()) == containment_pairs(s.origin)
    # k = 2: edges of the parent are not vertices, so triangles join only tetrahedra
    locus = simultaneous_locus(cross_polytope(3), [list(range(8)), [3, 1, 4, 1, 5, 9, 2, 6]],
                               [Fraction(7, 2), Fraction(7, 2)])
    assert {len(o) for o in locus.origin} == {3, 4}
    assert set(locus.graph.edges()) == containment_pairs(locus.origin)


@pytest.mark.parametrize("g, f, c", [
    (octahedron(), list(range(6)), Fraction(5, 2)),
    (cross_polytope(3), [3, 1, 4, 1, 5, 9, 2, 6], Fraction(7, 2)),
    (kuhn_grid(3, (2, 2, 2)), [(i * 7) % 11 for i in range(27)], Fraction(9, 2)),
], ids=["octahedron", "16-cell", "kuhn-3d"])
def test_single_constraint_locus_is_level_surface(g, f, c):
    s = level_surface(g, f, c)
    t = simultaneous_locus(g, [f], [c])
    assert s.graph.n > 0
    assert t.origin == s.origin
    assert t.graph.edges() == s.graph.edges()
    assert t.graph.coordinates == s.graph.coordinates


def test_level_hits_vertex():
    g = octahedron()
    with pytest.raises(LevelHitsVertex):
        level_surface(g, list(range(6)), 3)


def test_empty_surface():
    g = octahedron()
    s = level_surface(g, list(range(6)), Fraction(-1, 2))
    assert s.graph.n == 0


def test_simultaneous_min_dimension():
    g = cross_polytope(3)
    f1 = list(range(8))
    f2 = [3, 1, 4, 1, 5, 9, 2, 6]
    s = simultaneous_locus(g, [f1, f2], [Fraction(7, 2), Fraction(7, 2)])
    assert all(len(o) >= 3 for o in s.origin)  # dimension >= k = 2


def test_simultaneous_too_many_constraints():
    g = octahedron()
    with pytest.raises(DimensionExceeded):
        simultaneous_locus(g, [list(range(6))] * 3, [Fraction(1, 2)] * 3)


def test_simultaneous_regular_pair_is_circle():
    # both functions positive at a single vertex; the sole vertices differ
    g = sixteen_cell()
    f = [5, -1, -2, -3, -4, -6, -7, -8]
    h = [-11, 9, -12, -13, -14, -15, -16, -17]
    s = simultaneous_locus(g, [f, h], [0, 0])
    assert s.graph.n == 8
    assert is_sphere(s.graph, 1).ok


def test_degenerate_pair_is_not_a_circle():
    # identical functions: every crossing tetrahedron keeps 3 or 4 triangles
    g = sixteen_cell()
    f = [5, -1, -2, -3, -4, -6, -7, -8]
    s = simultaneous_locus(g, [f, f], [0, 0])
    assert s.graph.n > 0
    assert not is_dgraph(s.graph, 1).ok


def test_surface_triangles_octahedron():
    st = surface_triangles(octahedron())
    assert len(st.triangles) == 8
    assert st.orientable
    # consistent orientation: each edge appears once per direction
    seen = set()
    for x, y, z in st.triangles:
        for e in ((x, y), (y, z), (z, x)):
            assert e not in seen
            seen.add(e)


def test_surface_triangles_of_level_surface():
    g = cross_polytope(3)
    s = level_surface(g, list(range(8)), Fraction(7, 2))
    st = surface_triangles(s)
    assert s.graph.n - s.graph.edge_count() + len(st.triangles) == 2
    assert st.orientable


def test_surface_triangles_rejects_nonsurface():
    with pytest.raises(NotASurface):
        surface_triangles(wheel(6))


def test_interpolated_coordinates():
    g = kuhn_grid(2, (2, 2))
    f = [Fraction(i * 7 % 13) - Fraction(11, 2) for i in range(g.n)]
    s = level_surface(g, f, Fraction(1, 4))
    pts = interpolate_coordinates(g, s.origin, s.functions, s.levels)
    assert len(pts) == s.graph.n
    assert s.graph.coordinates == pts
    lo = min(min(p) for p in g.coordinates)
    hi = max(max(p) for p in g.coordinates)
    for p in pts:
        assert all(lo <= x <= hi for x in p)


def test_interpolation_needs_coordinates():
    g = kuhn_grid(2, (4, 4), periodic=True)  # a torus: no coordinates
    assert g.coordinates is None
    s = level_surface(g, list(range(g.n)), Fraction(15, 2))
    assert s.graph.n > 0
    assert s.graph.coordinates is None
    with pytest.raises(MissingCoordinates):
        interpolate_coordinates(g, s.origin, s.functions, s.levels)


def test_projective_plane_is_not_orientable():
    tri = surface_triangles(flag_rp2())
    assert len(tri.triangles) == 60
    assert tri.orientable is False


def _orient_by_edge_index(graph):
    """(triangles, orientable) from an edge -> triangles index, with a
    rotation test on every revisit: the orienter surface_triangles replaced."""
    groups = graph.simplices()
    tris = list(groups[2]) if len(groups) > 2 else []
    by_edge = {}
    for i, t in enumerate(tris):
        for e in combinations(t, 2):
            by_edge.setdefault(e, []).append(i)
    oriented = {}
    orientable = True
    for seed in range(len(tris)):
        if seed in oriented:
            continue
        oriented[seed] = tris[seed]
        stack = [seed]
        while stack:
            i = stack.pop()
            x, y, z = oriented[i]
            for a, b in ((x, y), (y, z), (z, x)):
                for j in by_edge[tuple(sorted((a, b)))]:
                    if j == i:
                        continue
                    w = next(v for v in tris[j] if v not in (a, b))
                    want = (b, a, w)
                    if j not in oriented:
                        oriented[j] = want
                        stack.append(j)
                    else:
                        have = oriented[j]
                        if want not in {have, (have[1], have[2], have[0]),
                                        (have[2], have[0], have[1])}:
                            orientable = False
    return tuple(oriented[i] for i in range(len(tris))), orientable


SURFACES = {
    "octahedron": octahedron,
    "icosahedron": icosahedron,
    "flag_rp2": flag_rp2,
    "torus 4x4": lambda: kuhn_grid(2, (4, 4), periodic=True),
    "torus 5x7": lambda: kuhn_grid(2, (5, 7), periodic=True),
    **{f"random_sphere({s}, {10 * s})": (lambda s=s: random_sphere(s, 10 * s)) for s in range(20)},
    "barycentric^2(octahedron)": lambda: barycentric(barycentric(octahedron()).graph).graph,
}


@pytest.mark.parametrize("name", SURFACES)
def test_orienter_matches_the_edge_index_orienter(name):
    graph = SURFACES[name]()
    st = surface_triangles(graph)
    assert (st.triangles, st.orientable) == _orient_by_edge_index(graph)
    assert st.orientable == (name != "flag_rp2")
