"""Level hypersurfaces, simultaneous loci, and surface triangulation.

Validates:
    - {f=c} on spheres gives circles / 2-spheres with known sizes
    - the surface graph's edges are exactly the containment pairs
    - LevelHitsVertex and constraint-count errors
    - simultaneous locus on the 16-cell: regular pair gives a circle
    - oriented triangle extraction and interpolated coordinates
    - crossing ratios bit for bit the floats of their Fractions, on a unit
      edge, and crossing points bit for bit those of Fraction ratios, for
      levels moved by multiples of EPSILON and on a rational locus
    - the orienter gives the triangles and orientable flag of an orienter
      that indexes every edge's triangles; surface_triangles refuses
      exactly the graphs 2-graph verification refuses, with its witness,
      and its sorted triangles are simplices()[2] in order, on surfaces,
      non-surfaces, a disjoint union, an isolated vertex and the empty graph;
      a projective plane is found non-orientable when it is the second
      component, the first, or refined
    - loci enumerated from the band's cliques equal the filter of the whole
      complex, on catalog graphs, seeded spheres and the variety grids
    - sides and level hits decided on integers agree with Fraction compares
      on values of both signs, mixed denominators and huge numerators
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from levelgraph.catalog import (cross_polytope, cycle, icosahedron, kuhn_grid, octahedron,
                                random_sphere, sixteen_cell, wheel)
from levelgraph.core import SimplicialGraph, disjoint_union
from levelgraph.errors import DimensionExceeded, LevelHitsVertex, MissingCoordinates, NotASurface
from levelgraph.levelset import (interpolate_coordinates, level_surface,
                                 simultaneous_locus, surface_triangles)
from levelgraph.refine import barycentric
from levelgraph.topology import components, is_dgraph, is_sphere
from levelgraph.variety import triangulate_variety

from conftest import hard_rationals, random_injective
from test_topology import flag_rp2

# a step far below any gap between the values these tests cut
EPSILON = Fraction(1, 2 ** 64)


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


def _interpolate_by_fractions(g, origin, functions, levels):
    """Crossing points, each ratio taken as float((c - va) / (vb - va)) of a
    Fraction: interpolate_coordinates before its ratio moved to integers."""
    dim = len(g.coordinates[0])
    points = []
    for simplex in origin:
        crossings = []
        for values, c in zip(functions, levels):
            for a, b in combinations(simplex, 2):
                if (values[a] < c) != (values[b] < c):
                    t = float((c - values[a]) / (values[b] - values[a]))
                    pa, pb = g.coordinates[a], g.coordinates[b]
                    crossings.append(tuple(pa[k] + t * (pb[k] - pa[k]) for k in range(dim)))
        points.append(tuple(sum(p[k] for p in crossings) / len(crossings) for k in range(dim)))
    return points


def _bits(points):
    """Coordinates as float.hex strings, so that 0.0 and -0.0 differ."""
    return [[x.hex() for x in p] for p in points]


@pytest.mark.parametrize("k", [1, 2, 3, -1, -5])
def test_crossing_points_at_epsilon_levels_match_fraction_ratios(k):
    # a level moved off a value set by k * EPSILON, over negative and zero values
    g = kuhn_grid(3, (3, 3, 3), origin=[Fraction(-3, 2)] * 3, step=Fraction(1, 1))
    f = [Fraction(i % 5 - 2) * Fraction(i % 3 - 1, 7) - Fraction(i % 2, 3) for i in range(g.n)]
    s = level_surface(g, f, k * EPSILON)
    assert s.graph.n > 0
    pts = interpolate_coordinates(g, s.origin, s.functions, s.levels)
    assert _bits(pts) == _bits(_interpolate_by_fractions(g, s.origin, s.functions, s.levels))
    assert _bits(s.graph.coordinates) == _bits(pts)


def test_crossing_points_of_a_rational_locus_match_fraction_ratios():
    rng = random.Random(19)
    g = kuhn_grid(3, (3, 3, 2), origin=[Fraction(-1, 3), Fraction(2, 7), Fraction(-5, 2)],
                  step=Fraction(2, 7))
    fs = [[Fraction(rng.randint(-90, 90), rng.randint(1, 40)) for _ in range(g.n)]
          for _ in range(2)]
    cs = [Fraction(-3, 7), Fraction(5, 11)]
    s = simultaneous_locus(g, fs, cs)
    assert s.graph.n > 0
    pts = interpolate_coordinates(g, s.origin, s.functions, s.levels)
    assert _bits(pts) == _bits(_interpolate_by_fractions(g, s.origin, s.functions, s.levels))


def _crossing(rng, k):
    """(va, vb, c) with c on the level side of exactly one of va, vb: moved
    by k * EPSILON off a value, between two values, or at the larger one."""
    big = rng.choice([10, 10 ** 6, 2 ** 70])
    va, vb = (Fraction(rng.randint(-big, big), rng.randint(1, big)) for _ in range(2))
    while vb == va:
        vb = Fraction(rng.randint(-big, big), rng.randint(1, big))
    lo, hi = sorted((va, vb))
    kind = rng.randrange(3)
    if kind == 0:
        c = lo + k * EPSILON if k > 0 else hi + k * EPSILON
    elif kind == 1:
        c = lo + (hi - lo) * Fraction(rng.randint(1, 10 ** 9), 10 ** 9 + 1)
    else:
        c = hi  # a zero ratio when va is the larger value
    return va, vb, c


@pytest.mark.parametrize("k", [1, 3, -1, -2])
def test_crossing_ratios_are_the_floats_of_their_fractions(k):
    # on the edge from 0.0 to 1.0 the crossing point is the ratio t itself
    rng = random.Random(19 + k)
    g = SimplicialGraph(2, [(0, 1)], coordinates=[(0.0,), (1.0,)])
    for _ in range(500):
        va, vb, c = _crossing(rng, k)
        ((x,),) = interpolate_coordinates(g, ((0, 1),), ((va, vb),), (c,))
        assert x.hex() == float((c - va) / (vb - va)).hex(), (va, vb, c)


def test_projective_plane_is_not_orientable():
    tri = surface_triangles(flag_rp2())
    assert len(tri.triangles) == 60
    assert tri.orientable is False


def _orient_by_edge_index(graph):
    """(triangles, orientable) from an edge -> triangles index built from
    the complex, with a rotation test on every revisit: an orienter written
    apart from surface_triangles, sharing none of its code."""
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
    "wheel(6)": lambda: wheel(6),
    "cycle(5)": lambda: cycle(5),
    "cross_polytope(3)": lambda: cross_polytope(3),
    "cross_polytope(4)": lambda: cross_polytope(4),
    "torus 6x4": lambda: kuhn_grid(2, (6, 4), periodic=True),
    "two octahedra": lambda: disjoint_union(octahedron(), octahedron()),
    "octahedron + isolated vertex": lambda: disjoint_union(octahedron(), SimplicialGraph(1, [])),
    "empty graph": lambda: SimplicialGraph(0, []),
    # the parity obstruction shows only in a later component, or deep in a refinement
    "torus 4x4 + flag_rp2": lambda: disjoint_union(kuhn_grid(2, (4, 4), periodic=True), flag_rp2()),
    "flag_rp2 + octahedron": lambda: disjoint_union(flag_rp2(), octahedron()),
    "barycentric(flag_rp2)": lambda: barycentric(flag_rp2()).graph,
}
NOT_ORIENTABLE = {"flag_rp2", "torus 4x4 + flag_rp2", "flag_rp2 + octahedron", "barycentric(flag_rp2)"}
NOT_SURFACES = {"wheel(6)", "cycle(5)", "cross_polytope(3)", "cross_polytope(4)",
                "octahedron + isolated vertex"}


@pytest.mark.parametrize("name", SURFACES)
def test_orienter_matches_the_edge_index_orienter(name):
    """surface_triangles refuses exactly the graphs is_dgraph(g, 2) refuses,
    naming its witness; otherwise its triangles, sorted, are simplices()[2]
    in order, oriented as the orienter with an edge index orients them."""
    graph = SURFACES[name]()
    report = is_dgraph(graph, 2)
    assert report.ok == (name not in NOT_SURFACES)
    if not report.ok:
        with pytest.raises(NotASurface) as refused:
            surface_triangles(graph)
        assert str(refused.value) == f"2-graph verification said no (witness {report.witness!r})"
        return
    st = surface_triangles(graph)
    groups = graph.simplices()
    assert tuple(tuple(sorted(t)) for t in st.triangles) == (groups[2] if len(groups) > 2 else ())
    assert (st.triangles, st.orientable) == _orient_by_edge_index(graph)
    assert st.orientable == (name not in NOT_ORIENTABLE)


def _straddling(g, functions, levels):
    """The simplices of dimension >= k straddling every level, filtered from
    the whole complex of a fresh copy of g."""
    belows = [{v for v, x in enumerate(f) if x < c} for f, c in zip(functions, levels)]
    whole = SimplicialGraph(g.n, g.edges()).simplices()
    return tuple(s for group in whole[len(levels):] for s in group
                 if all(not b.isdisjoint(s) and not b.issuperset(s) for b in belows))


LOCUS_GRAPHS = {
    "octahedron": octahedron,
    "icosahedron": icosahedron,
    "wheel(7)": lambda: wheel(7),
    "16-cell": sixteen_cell,
    "cross_polytope(4)": lambda: cross_polytope(4),
    "flag_rp2": flag_rp2,
    "barycentric(16-cell)": lambda: barycentric(sixteen_cell()).graph,
    "3-torus 4x4x4": lambda: kuhn_grid(3, (4, 4, 4), periodic=True),
    **{f"random_sphere({s}, {10 * s})": (lambda s=s: random_sphere(s, 10 * s)) for s in range(8)},
}


@pytest.mark.parametrize("name", LOCUS_GRAPHS)
def test_band_cliques_give_the_locus_of_the_whole_complex(name):
    graph = LOCUS_GRAPHS[name]()
    rng = random.Random(name)
    d = len(SimplicialGraph(graph.n, graph.edges()).simplices()) - 1
    for k in range(1, min(d, 3) + 1):
        for _ in range(4):
            fs = [random_injective(rng, graph.n) for _ in range(k)]
            cs = []
            for f in fs:  # a level between two values at a random rank, so bands vary in size
                values, i = sorted(f), rng.randrange(graph.n - 1)
                cs.append((values[i] + values[i + 1]) / 2)
            g = SimplicialGraph(graph.n, graph.edges())  # no cached complex to filter
            locus = level_surface(g, fs[0], cs[0]) if k == 1 else simultaneous_locus(g, fs, cs)
            assert locus.origin == _straddling(graph, fs, cs), (k, cs)


@pytest.mark.parametrize("polys, box, step", [
    (["x^2+y^2+z^2-2"], [(-2, 2)] * 3, Fraction(1, 2)),
    (["x^2+y^2+z^2-2", "x+1/3*y+1/7*z-1/5"], [(-2, 2)] * 3, Fraction(1, 2)),
    (["(x^2+y^2+z^2+3)^2-16*(x^2+y^2)"], [(-4, 4), (-4, 4), (-2, 2)], Fraction(1, 2)),
    (["x^2+y^2+z^2+w^2-2"], [(-2, 2)] * 4, Fraction(1)),
], ids=["sphere", "curve", "torus", "sphere4d"])
def test_variety_stages_come_from_the_band_alone(polys, box, step):
    """Each stage's origin is the whole-complex filter, and the grid's own
    complex is never built: the dimension comes from the clique search."""
    trace = triangulate_variety(polys, box, step)
    assert trace.graph._simplices is None
    current = trace.graph
    for stage in trace.stages:
        assert stage.surface.origin == _straddling(current, [stage.input_values], [stage.level])
        current = stage.surface.graph


def _first_hit(functions, levels):
    """(vertex, level) of the first value equal to its level, by Fraction
    compares, function by function; None when no level hits a vertex."""
    for f, c in zip(functions, levels):
        for v, x in enumerate(f):
            if x == c:
                return v, c
    return None


@pytest.mark.parametrize("name", ["octahedron", "cross_polytope(4)", "barycentric(16-cell)",
                                  "random_sphere(3, 30)"])
def test_integer_sides_match_fraction_compares(name):
    """Sides and hits decided on numerators and denominators give the locus
    and the LevelHitsVertex that Fraction compares give, on values of both
    signs with mixed denominators and huge numerators."""
    graph = LOCUS_GRAPHS[name]()
    rng = random.Random(f"sides {name}")
    for trial in range(24):
        k = 1 + trial % 2
        fs = [hard_rationals(rng, graph.n) for _ in range(k)]
        cs = []
        for f in fs:
            lo, hi = sorted(rng.sample(f, 2))
            # a value (a hit), the midpoint of two values, zero, or a value moved by 2^-300
            cs.append(rng.choice((rng.choice(f), (lo + hi) / 2, Fraction(0),
                                  rng.choice(f) + Fraction(rng.choice((-1, 1)), 2 ** 300))))
        g = SimplicialGraph(graph.n, graph.edges())
        hit = _first_hit(fs, cs)
        try:
            locus = level_surface(g, fs[0], cs[0]) if k == 1 else simultaneous_locus(g, fs, cs)
        except LevelHitsVertex as e:
            assert (e.vertex, e.value) == hit
        else:
            assert hit is None
            assert locus.origin == _straddling(graph, fs, cs), (k, cs)
