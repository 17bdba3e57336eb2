"""Catalog builders and the builtin: spec parser.

Validates:
    - random_sphere builds the graph and coordinates of the loop that rebuilt
      and re-sorted its whole edge list before every split
    - kuhn_grid builds the graph of the edge-list builder it replaced, bit for
      bit, and carries the dimension a clique search finds
    - build caps a spec's vertex count and an upper bound on its edge count,
      both computed from its arguments, before any constructor runs
"""

import math
import random
from fractions import Fraction
from itertools import product

import pytest

from levelgraph import catalog
from levelgraph.catalog import MAX_EDGES, icosahedron, kuhn_grid, random_sphere
from levelgraph.core import SimplicialGraph
from levelgraph.errors import InputError
from levelgraph.graphdoc import MAX_VERTICES

from conftest import kuhn_grid_by_edges, same_graph


def _random_sphere_rebuilding(seed, refinements):
    """The neighbour sets and coordinates of random_sphere, with the edge list
    rebuilt and sorted before every split (quadratic in refinements)."""
    rng = random.Random(seed)
    base = icosahedron()
    nbrs = [set(s) for s in base.neighbors]
    coords = [list(p) for p in base.coordinates]
    for _ in range(refinements):
        edge_list = [(u, v) for u in range(len(nbrs)) for v in sorted(nbrs[u]) if u < v]
        a, b = edge_list[rng.randrange(len(edge_list))]
        common = sorted(nbrs[a] & nbrs[b])
        x = len(nbrs)
        nbrs[a].discard(b)
        nbrs[b].discard(a)
        nbrs.append(set())
        for u in (a, b, *common):
            nbrs[x].add(u)
            nbrs[u].add(x)
        mid = [(coords[a][k] + coords[b][k]) / 2.0 for k in range(3)]
        norm = math.sqrt(sum(c * c for c in mid)) or 1.0
        scale = math.sqrt(sum(c * c for c in coords[a])) / norm
        coords.append([c * scale for c in mid])
    return tuple(frozenset(s) for s in nbrs), tuple(tuple(p) for p in coords)


def test_random_sphere_matches_the_rebuilding_loop():
    for seed in range(30):
        for refinements in (0, 1, 5, 50, 300):
            g = random_sphere(seed, refinements)
            assert (g.neighbors, g.coordinates) == _random_sphere_rebuilding(seed, refinements), \
                (seed, refinements)


KUHN_AXES = [cells for d in (1, 2, 3) for cells in product((1, 2, 4), repeat=d)]
KUHN_AXES += [(1, 2, 4, 1), (2, 1, 1, 2), (4, 4, 4, 4), (4, 2, 1, 4), (5, 4, 6), (7, 4)]


@pytest.mark.parametrize("cells", KUHN_AXES)
@pytest.mark.parametrize("periodic", [False, True])
def test_kuhn_grid_matches_the_edge_list_builder(cells, periodic):
    d = len(cells)
    if periodic and min(cells) < 4:
        with pytest.raises(InputError, match="at least 4 cells"):
            kuhn_grid(d, cells, periodic)
        return
    shifted = ((Fraction(-2), Fraction(1, 3), Fraction(-5, 7), Fraction(3, 2))[:d], Fraction(1, 6))
    for origin, step in ((None, None), shifted):
        g = kuhn_grid(d, cells, periodic, origin, step)
        assert same_graph(kuhn_grid_by_edges(d, cells, periodic, origin, step), g)
        assert g._dimension == d  # carried, so dimension() searches nothing
        assert g.dimension() == SimplicialGraph(g.n, g.edges()).dimension() == d


@pytest.fixture
def constructed(monkeypatch):
    """The argument tuples the catalog constructors were called with; nothing
    is built."""
    calls = []
    for name in ("cycle", "wheel", "cross_polytope", "kuhn_grid", "random_sphere"):
        monkeypatch.setattr(catalog, name, lambda *args: calls.append(args))
    monkeypatch.setattr(catalog, "suspension", lambda g: g)
    return calls


MANY_AXES = "x".join(["1"] * 1000)


@pytest.mark.parametrize("spec, cap", [
    (f"cycle({MAX_VERTICES})", None),
    (f"cycle({MAX_VERTICES + 1})", "vertices"),
    (f"wheel({MAX_VERTICES})", None),
    (f"wheel({MAX_VERTICES + 1})", "vertices"),
    ("cross_polytope(706)", None),  # 2d(d + 1) edges: 998,284
    ("cross_polytope(707)", "edges"),
    ("cross_polytope(3000)", "edges"),
    ("kuhn(99x999)", None),  # 100 x 1000 lattice points
    ("kuhn(99x1000)", "vertices"),
    ("kuhn(1000x1000)", "vertices"),
    ("kuhn(15x15x15x15)", None),  # 16^4 points, each starting at most 15 edges
    ("kuhn(16x16x16x16)", "edges"),
    ("kuhn(10x10x10x10,periodic)", None),
    ("kuhn(4x4x4x4x4x4x4x4,periodic)", "edges"),
    (f"kuhn({MANY_AXES},periodic)", "edges"),
    ("random_sphere(1,99988)", None),  # 12 + 99,988 vertices
    ("random_sphere(1,99989)", "vertices"),
    ("random_sphere(1,100000)", "vertices"),
    ("random_3_sphere(1,99986)", None),
    ("random_3_sphere(1,99987)", "vertices"),
])
def test_build_caps_specs_before_constructing(constructed, spec, cap):
    if cap is None:
        catalog.build(spec)
        assert len(constructed) == 1
    else:
        limit = MAX_VERTICES if cap == "vertices" else MAX_EDGES
        with pytest.raises(InputError, match=f"over the cap of {limit} {cap}"):
            catalog.build(spec)
        assert constructed == []
