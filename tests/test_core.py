"""Core graph container and clique complex enumeration.

Validates:
    - adjacency/induced bookkeeping, the unit sphere as an induced graph
    - the edge-list constructor and the neighbour-set assembly reject the same
      bad input: self loops, ids out of range, negative counts, label and
      coordinate lists of the wrong length, points of unequal length
    - induced builds the graph its edge-list form built, bit for bit, and
      an id outside 0..n-1 raises InputError naming the first one given
    - clique enumeration against a subset-scan oracle
    - cliques(verts) against a filter of the complex, with it cached or not,
      and against the breadth-first lister it replaced, on whole sets and
      on shuffled, repeated, iterated and empty subsets; only a whole set
      is cached, and an id outside 0..n-1 raises InputError
    - the clique search for dimension() against the complex, leaving it unbuilt
    - Euler characteristic, additivity, join formula
    - the f-vector and the chi of a vertex set counted without listing,
      against the listed cliques; counting leaves no complex behind, reads
      a cached one, and holds memory independent of the simplex count; a
      vertex set holding a suspension pole is counted without scanning the
      pole's neighbours
    - Zykov join building spheres from spheres
    - every name the package exports resolves and is listed once; a star
      import binds exactly those names, dir() lists them, an unknown name
      raises AttributeError and a submodule resolves as an attribute
"""

import importlib
import random
import tracemalloc
from itertools import combinations

import pytest

import levelgraph
from levelgraph import core
from levelgraph.core import SimplicialGraph, _euler_of, disjoint_union, euler_characteristic, join
from levelgraph.catalog import (cross_polytope, cycle, icosahedron, kuhn_grid, octahedron,
                                random_sphere, suspension, wheel)
from levelgraph.morse import ph_sum_check
from levelgraph.topology import is_contractible, is_sphere
from levelgraph.refine import barycentric
from levelgraph.errors import InputError

from conftest import brute_euler, same_graph


def test_basic_accessors():
    g = SimplicialGraph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
    assert g.n == 4
    assert g.degree(2) == 3
    assert g.adjacent(0, 1) and not g.adjacent(0, 3)
    assert g.edges() == [(0, 1), (0, 2), (1, 2), (2, 3)]
    assert g.edge_count() == 4
    assert g.dimension() == 2


# (n, edges, the same graph as neighbour sets, labels, coordinates, error message)
BAD_GRAPHS = [
    (3, [(0, 0)], [{0}, set(), set()], None, None, "self loop at vertex 0"),
    (3, [(0, 5)], [{5}, set(), set()], None, None, "out of range"),
    (3, [(0, -1)], [{-1}, set(), set()], None, None, "out of range"),
    (3, [(-3, 1)], [set(), {-3}, set()], None, None, "out of range"),
    (-1, [], None, None, None, "nonnegative"),  # a list of neighbour sets has no negative length
    (3, [(0, 1)], [{1}, {0}, set()], "ab", None, "labels length"),
    (3, [(0, 1)], [{1}, {0}, set()], None, [(0.0,)] * 4, "coordinates length"),
]


def test_rejects_self_loops_and_range():
    for n, edges, nbrs, labels, coordinates, message in BAD_GRAPHS:
        with pytest.raises(InputError, match=message):
            SimplicialGraph(n, edges, labels, coordinates)
        if nbrs is not None:
            with pytest.raises(InputError, match=message):
                SimplicialGraph._from_neighbors(nbrs, labels, coordinates)


def test_rejects_points_of_unequal_length():
    # a short point used to break barycentric and level_surface (IndexError)
    # when it came last, and to cut every new point to its length when first
    o = octahedron()
    for short in (0, 5):
        points = list(o.coordinates)
        points[short] = points[short][:2]
        with pytest.raises(InputError, match="coordinates differ in length"):
            SimplicialGraph(6, o.edges(), coordinates=points)
    assert SimplicialGraph(2, [(0, 1)], coordinates=[(), ()]).coordinates == ((), ())


def test_neighbour_sets_assemble_the_graph_their_edges_build():
    nbrs = [{1, 2}, {0}, {0}]
    g = SimplicialGraph._from_neighbors(nbrs, "abc", [(0.0,), (1.0,), (2.0,)], dimension=1)
    assert same_graph(SimplicialGraph(3, [(0, 1), (0, 2)], "abc", [(0,), (1,), (2,)]), g)
    assert g.dimension() == 1 and g._simplices is None


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


def _catalog_and_random_graphs():
    """Catalog graphs, seeded spheres and sparse random graphs, each built fresh.

    Random graphs keep n <= 30 and edge probability <= 1/2, so no complex
    here has more than a few thousand simplices."""
    graphs = [SimplicialGraph(0, []), SimplicialGraph(3, []), octahedron(), icosahedron(),
              cycle(5), wheel(7), cross_polytope(3), cross_polytope(4),
              barycentric(cross_polytope(3)).graph, kuhn_grid(3, (4, 4, 4), periodic=True),
              kuhn_grid(4, (2, 2, 2, 2))]
    graphs += [random_sphere(seed, 10 * seed) for seed in range(6)]
    rng = random.Random(16)
    for _ in range(30):
        n, p = rng.randint(1, 30), rng.uniform(0, 0.5)
        graphs.append(SimplicialGraph(n, [e for e in combinations(range(n), 2) if rng.random() < p]))
    return [SimplicialGraph(g.n, g.edges()) for g in graphs]  # none has a cached complex


def test_dimension_is_the_clique_number_and_builds_no_complex():
    for g in _catalog_and_random_graphs():
        d = g.dimension()
        assert g._simplices is None and g._dimension == d  # kept for the next call
        assert d == len(g.simplices()) - 1
        assert g.dimension() == d  # now read from the cached complex


def test_dimension_of_a_large_clique_needs_no_enumeration():
    # K_300 has 2^300 - 1 simplices; the search finds its one top simplex
    g = SimplicialGraph(300, combinations(range(300), 2))
    assert g.dimension() == 299
    assert g._simplices is None


def test_cliques_of_a_vertex_set_are_the_filtered_complex():
    rng = random.Random(5)
    for g in _catalog_and_random_graphs():
        sets = [set(), {v for v in range(g.n) if rng.random() < 0.6},
                {v for v in range(g.n) if rng.random() < 0.3}, set(range(g.n))]
        walked = [g.cliques(verts) for verts in sets]  # a set of every vertex caches the complex
        whole = g.simplices()
        assert g._simplices is whole
        for verts, groups in zip(sets, walked):
            expected = tuple(t for t in (tuple(s for s in group if verts.issuperset(s))
                                         for group in whole) if t)
            assert groups == expected
            assert g.cliques(sorted(verts)) == expected  # enumerated with the complex cached
        assert walked[-1] == whole


def test_cliques_of_every_vertex_are_cached_as_the_complex():
    g = cross_polytope(3)
    groups = g.cliques(range(g.n))
    assert g.simplices() is groups
    h = cross_polytope(3)
    h.cliques(range(1, h.n))
    assert h._simplices is None


def test_cliques_reject_ids_out_of_range():
    # a negative id used to index another vertex's neighbour set, listing
    # the bogus edge (-2, 0) here; six ids cached a complex holding (-1,)
    g = octahedron()
    with pytest.raises(InputError, match=r"vertex -1 is out of range for n=6"):
        g.cliques([-1, -2, 0])
    with pytest.raises(InputError, match=r"vertex -1 is out of range for n=6"):
        g.cliques([-1, 0, 1, 2, 3, 4])
    assert g._simplices is None
    with pytest.raises(InputError, match=r"vertex 6 is out of range for n=6"):
        g.cliques(iter([0, 6, 1, 7]))  # an id >= n used to raise a bare IndexError
    g.cliques([0, 0, 1, 2, 3, 4])  # n ids, but not every vertex
    assert g._simplices is None
    assert g.simplices()[0] == tuple((v,) for v in range(6))
    with pytest.raises(InputError, match=r"vertex 0 is out of range for n=0"):
        SimplicialGraph(0, []).cliques([0])


def test_induced_rejects_ids_out_of_range():
    # a negative id used to join vertex 5's neighbours in through
    # neighbors[-1]; an id >= n raised a bare IndexError
    g = octahedron()
    with pytest.raises(InputError, match=r"vertex -1 is out of range for n=6"):
        g.induced([-1, 0, 1])
    with pytest.raises(InputError, match=r"vertex 6 is out of range for n=6"):
        g.induced(iter([0, 6, 1, -2]))  # the first bad id in the order given
    with pytest.raises(InputError, match=r"vertex 0 is out of range for n=0"):
        SimplicialGraph(0, []).induced([0])
    assert g.induced([]).n == 0
    assert g.induced([5, 0, 5]).labels == (0, 5)


def _cliques_breadth_first(g, verts):
    """cliques(verts) as it was: level by level, holding every (simplex,
    candidates) pair of a dimension at once."""
    keep = set(verts)
    nbrs = g.neighbors
    groups = []
    level = [((v,), sorted(u for u in nbrs[v] & keep if u > v)) for v in sorted(keep)]
    while level:
        groups.append(tuple(s for s, _ in level))
        nxt = []
        for s, cand in level:
            for i, v in enumerate(cand, 1):
                nv, rest = nbrs[v], cand[i:]
                nxt.append((s + (v,), [u for u in rest if u in nv] if rest else []))
        level = nxt
    return tuple(groups)


def test_depth_first_cliques_match_the_breadth_first_lister():
    rng = random.Random(27)
    for g in _counting_cases():
        whole = _cliques_breadth_first(g, range(g.n))
        subsets = [[], [v for v in range(g.n) if rng.random() < 0.5]]
        for p in (0.2, 0.5, 0.9):
            verts = [v for v in range(g.n) if rng.random() < p]
            rng.shuffle(verts)
            subsets.append(verts)
            subsets.append(verts + rng.choices(verts, k=len(verts)) if verts else [])  # duplicates
        for verts in subsets:
            expected = _cliques_breadth_first(g, verts)
            whole_set = set(verts) == set(range(g.n))
            for given in (verts, iter(verts)):
                h = SimplicialGraph(g.n, g.edges())
                assert h.cliques(given) == expected
                assert (h._simplices is not None) == whole_set
        h = SimplicialGraph(g.n, g.edges())
        shuffled = rng.sample(range(g.n), g.n)
        assert h.cliques(iter(shuffled + shuffled[: g.n // 2])) == whole
        assert h._simplices == whole


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
        assert g._simplices is None  # counted, not listed


def _counting_cases():
    """Graphs for the counter, each built fresh, so none has a cached complex."""
    graphs = [SimplicialGraph(0, []), SimplicialGraph(1, []), SimplicialGraph(4, []),
              SimplicialGraph(5, [(0, 1), (1, 2), (0, 2)]), octahedron(), icosahedron()]
    graphs += [cross_polytope(d) for d in range(7)]
    graphs += [wheel(n) for n in range(5, 10)] + [cycle(n) for n in range(3, 10)]
    graphs += [SimplicialGraph(n, combinations(range(n), 2)) for n in range(10)]
    graphs += [disjoint_union(octahedron(), cycle(5)), disjoint_union(wheel(6), SimplicialGraph(2, [])),
               join(cycle(4), cycle(5)), join(octahedron(), SimplicialGraph(3, [(0, 1)]))]
    graphs += [kuhn_grid(2, (4, 5), periodic=True), kuhn_grid(3, (4, 4, 4), periodic=True),
               kuhn_grid(2, (3, 2)), kuhn_grid(3, (2, 3, 2)), kuhn_grid(4, (2, 2, 2, 2))]
    for seed in range(4):
        s = random_sphere(seed, 15 * seed)
        graphs += [s, suspension(s), suspension(suspension(s))]
    rng = random.Random(24)
    for p in (0.1, 0.3, 0.6):
        for _ in range(8):
            n = rng.randint(1, 25)
            graphs.append(SimplicialGraph(n, [e for e in combinations(range(n), 2) if rng.random() < p]))
    return [SimplicialGraph(g.n, g.edges()) for g in graphs]


def test_f_vector_counts_what_cliques_list():
    for g in _counting_cases():
        counted = g.f_vector()
        assert g._simplices is None
        assert counted == tuple(len(group) for group in g.cliques(range(g.n)))
        chi = euler_characteristic(SimplicialGraph(g.n, g.edges()))
        assert chi == sum((-1) ** k * c for k, c in enumerate(counted))
        if len(counted) <= 6 and g.n <= 12:  # brute_euler scans subsets of at most 6 vertices
            assert chi == brute_euler(g)


def test_euler_of_a_vertex_set_is_the_alternating_sum_of_its_cliques():
    rng = random.Random(12)
    for g in _counting_cases():
        for p in (0.2, 0.5, 0.8, 1.0):
            verts = [v for v in range(g.n) if rng.random() < p]
            rng.shuffle(verts)  # the counter takes any order
            expected = sum((-1) ** k * len(group) for k, group in enumerate(g.cliques(verts)))
            assert _euler_of(g, verts) == expected
            assert _euler_of(g, iter(verts)) == expected


class _NoScan(frozenset):
    """A neighbour set that refuses to be scanned element by element."""

    def __iter__(self):
        raise AssertionError("scanned a pole's whole neighbour set")


def test_counts_of_vertex_sets_with_a_pole_match_the_listed_cliques():
    # the poles of a suspension are vertices 0 and 1, adjacent to everything
    # else: in a set smaller than a pole's degree, a count takes the pole's
    # candidates from the set, so the wrapped pole sets are never scanned
    rng = random.Random(26)
    for g in (suspension(random_sphere(3, 300)), suspension(suspension(random_sphere(5, 60)))):
        wrapped = list(g.neighbors)
        wrapped[0], wrapped[1] = _NoScan(wrapped[0]), _NoScan(wrapped[1])
        sets = [[0], [0, 1], [1, 2], sorted(g.neighbors[2]), sorted(g.neighbors[2] | {2})]
        sets += [sorted(g.neighbors[x]) for x in rng.sample(range(2, g.n), 12)]
        sets += [[0] + rng.sample(range(2, g.n), k) for k in (1, 3, 10, 40)]
        for verts in sets:
            assert 0 in verts or 1 in verts
            want = tuple(len(group) for group in g.cliques(verts))
            nbrs = wrapped if len(verts) < len(g.neighbors[0]) else g.neighbors
            assert core._clique_counts(nbrs, verts) == want


def test_counting_lists_no_complex(monkeypatch):
    cases = [(octahedron(), 2), (random_sphere(3, 40), 2), (cross_polytope(3), 3),
             (suspension(random_sphere(5, 20)), 3), (cross_polytope(4), 4),
             (kuhn_grid(2, (4, 4), periodic=True), 2), (wheel(7), 2)]
    for g, d in cases:
        g = SimplicialGraph(g.n, g.edges())
        g.f_vector()
        euler_characteristic(g)
        is_sphere(g, d)
        is_contractible(g)
        ph_sum_check(g, random.Random(g.n).sample(range(g.n), g.n))
        assert g._simplices is None
    g = cross_polytope(3)
    groups = g.simplices()

    def refuse(nbrs, verts):
        raise AssertionError("counted though the complex is cached")
    monkeypatch.setattr(core, "_clique_counts", refuse)
    assert g.f_vector() == tuple(len(group) for group in groups) == (8, 24, 32, 16)
    assert euler_characteristic(g) == 0


def test_euler_of_a_large_cross_polytope_holds_no_complex():
    # 3^11 - 1 = 177,146 simplices; listing them peaks at about 25 MB
    g = cross_polytope(10)
    tracemalloc.start()
    try:
        chi = euler_characteristic(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert chi == 2  # a 10-sphere
    assert peak < 1_000_000, f"peak {peak} bytes"
    assert g._simplices is None


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
    g = octahedron()
    s = g.induced(g.neighbors[0])
    assert s.n == 4
    assert all(s.degree(v) == 2 for v in range(4))


def test_induced_labels_track_parent():
    g = octahedron()
    h = g.induced([1, 3, 4])
    assert h.n == 3
    assert [h.label_of(v) for v in range(3)] == [1, 3, 4]


def _induced_by_edges(g, verts):
    """SimplicialGraph.induced as it was, through an edge list and the constructor."""
    sel = sorted(set(verts))
    index = {v: i for i, v in enumerate(sel)}
    edges = [(index[v], index[u]) for v in sel for u in g.neighbors[v] if u > v and u in index]
    coords = [g.coordinates[v] for v in sel] if g.coordinates is not None else None
    return SimplicialGraph(len(sel), edges, [g.label_of(v) for v in sel], coords)


def test_induced_matches_the_edge_list_builder():
    rng = random.Random(11)
    graphs = [octahedron(), icosahedron(), random_sphere(3, 300), kuhn_grid(3, (8, 8, 4)),
              kuhn_grid(3, (4, 5, 4), periodic=True), barycentric(cross_polytope(3)).graph]
    for g in graphs:
        for share in (0.1, 0.5, 0.9, 1.0):
            verts = [v for v in range(g.n) if rng.random() < share]
            h = g.induced(verts)
            assert same_graph(_induced_by_edges(g, verts), h)
            rebuilt = SimplicialGraph(h.n, h.edges(), h.labels, h.coordinates)
            assert (rebuilt.neighbors, rebuilt.labels, rebuilt.coordinates) == \
                (h.neighbors, h.labels, h.coordinates)
        for x in (0, g.n // 2, g.n - 1):
            assert same_graph(_induced_by_edges(g, g.neighbors[x]), g.induced(g.neighbors[x]))


def test_exports_resolve_once():
    names = levelgraph.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(levelgraph, name), name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from levelgraph import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(levelgraph.__all__)


def test_dir_lists_every_export():
    assert set(levelgraph.__all__) <= set(dir(levelgraph))


def test_unknown_attribute_is_named():
    with pytest.raises(AttributeError, match="nonexistent"):
        levelgraph.nonexistent


def test_submodule_is_an_attribute():
    topology = importlib.import_module("levelgraph.topology")
    assert levelgraph.topology is topology
    # the lookup a fresh `levelgraph.topology` takes before the import binds it
    assert levelgraph.__getattr__("topology") is topology
