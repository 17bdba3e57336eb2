"""Builders for the stock graphs used throughout the package and its tests."""

from __future__ import annotations

import bisect
import math
import random
import re
from fractions import Fraction
from itertools import product
from typing import Optional, Sequence

from .core import SimplicialGraph, join
from .errors import InputError
from .graphdoc import MAX_VERTICES

# builtin: specs are capped before anything is built; this is about twenty times
# the largest graph a test or the benchmark builds (a 4-D variety surface of
# about 50,000 edges)
MAX_EDGES = 10 ** 6


def cycle(n: int) -> SimplicialGraph:
    """Cycle graph C_n on vertices 0..n-1; a 1-sphere for n >= 4."""
    if n < 3:
        raise InputError(f"cycle needs at least 3 vertices, got {n}")
    edges = [(i, (i + 1) % n) for i in range(n)]
    coords = [(math.cos(2 * math.pi * i / n), math.sin(2 * math.pi * i / n)) for i in range(n)]
    return SimplicialGraph(n, edges, coordinates=coords)


def wheel(n: int) -> SimplicialGraph:
    """Wheel on n vertices: hub 0 joined to the rim cycle 1..n-1."""
    if n < 5:
        raise InputError(f"wheel needs at least 5 vertices, got {n}")
    rim = n - 1
    edges = [(0, i) for i in range(1, n)]
    edges += [(i, i % rim + 1) for i in range(1, n)]
    coords = [(0.0, 0.0)] + [
        (math.cos(2 * math.pi * i / rim), math.sin(2 * math.pi * i / rim)) for i in range(rim)
    ]
    return SimplicialGraph(n, edges, coordinates=coords)


def cross_polytope(d: int) -> SimplicialGraph:
    """The d-sphere on 2d+2 vertices: all edges except the antipodal pairs.

    Vertex i and vertex 2d+1-i are antipodal.  Coordinates are the unit
    vectors +-e_i in R^(d+1), so cross_polytope(2) is the octahedron and
    cross_polytope(3) the sixteen cell.
    """
    if d < 0:
        raise InputError(f"cross_polytope needs d >= 0, got {d}")
    n = 2 * d + 2
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if u + v != n - 1]
    coords = []
    for v in range(n):
        p = [0.0] * (d + 1)
        if v <= d:
            p[v] = 1.0
        else:
            p[n - 1 - v] = -1.0
        coords.append(tuple(p))
    return SimplicialGraph(n, edges, coordinates=coords)


def octahedron() -> SimplicialGraph:
    return cross_polytope(2)


def sixteen_cell() -> SimplicialGraph:
    return cross_polytope(3)


def suspension(g: SimplicialGraph) -> SimplicialGraph:
    """Join with the two-point 0-sphere; raises every sphere's dimension by one."""
    return join(cross_polytope(0), g)


def icosahedron() -> SimplicialGraph:
    """The 12-vertex 2-sphere with vertex degrees 5."""
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    coords = []
    for a, b in ((1.0, phi), (1.0, -phi), (-1.0, phi), (-1.0, -phi)):
        coords.append((0.0, a, b))
    for a, b in ((1.0, phi), (1.0, -phi), (-1.0, phi), (-1.0, -phi)):
        coords.append((a, b, 0.0))
    for a, b in ((1.0, phi), (1.0, -phi), (-1.0, phi), (-1.0, -phi)):
        coords.append((b, 0.0, a))
    edges = []
    for u in range(12):
        for v in range(u + 1, 12):
            d2 = sum((coords[u][k] - coords[v][k]) ** 2 for k in range(3))
            if d2 < 5.0:  # adjacent pairs sit at squared distance exactly 4
                edges.append((u, v))
    return SimplicialGraph(12, edges, coordinates=coords)


def _check_size(name: str, vertices: int, edges: int) -> None:
    """Raise an InputError naming the cap a graph of this size would exceed."""
    if vertices > MAX_VERTICES:
        raise InputError(f"{name}: over the cap of {MAX_VERTICES} vertices")
    if edges > MAX_EDGES:
        raise InputError(f"{name}: over the cap of {MAX_EDGES} edges")


def check_kuhn_size(name: str, cells: Sequence[int], periodic: bool) -> None:
    """_check_size for kuhn_grid(len(cells), cells, periodic), from its
    arguments alone, so an oversized grid is rejected before it is built."""
    vertices = 1
    for size in (cells if periodic else (c + 1 for c in cells)):
        vertices *= size
        if abs(vertices) > MAX_VERTICES:  # stop before a long spec makes a huge product
            break
    # each lattice point starts at most 2^d - 1 edges
    _check_size(name, vertices, vertices * (2 ** len(cells) - 1))


def kuhn_grid(d: int, cells: Sequence[int], periodic: bool = False,
              origin: Optional[Sequence[Fraction]] = None,
              step: Optional[Fraction] = None) -> SimplicialGraph:
    """Staircase triangulation of a d-dimensional box or torus.

    Lattice points are the vertices; two points are adjacent when their
    difference is a nonzero 0/1 vector (up to sign), which makes the clique
    complex the standard simplicial subdivision of the grid into d!
    simplices per cell.  With periodic=True every axis wraps and must have
    at least 4 cells; the result is then a d-torus.

    Vertices are numbered in itertools.product order of their lattice
    points, so point p has id sum(p[k] * stride[k]) with the last axis
    fastest, and each neighbour is found by adding an id offset.  Labels are
    the integer lattice points.  Unless periodic, vertex coordinates are
    origin + index * step per axis, taken from one float table per axis
    (origin 0 and step 1 by default).

    The graph carries its dimension, d.  A clique is a chain of points
    whose consecutive differences are 0/1 vectors, so its ends differ by a
    0/1 vector and it has at most d + 1 points; the d + 1 corners along any
    monotone path through a cell are one.  A periodic axis has at least 4
    cells, so a wrapped step is never also a step the other way and no wrap
    adds an adjacency the box does not have.
    """
    cells = tuple(int(c) for c in cells)
    if len(cells) != d:
        raise InputError(f"expected {d} axis sizes, got {len(cells)}")
    if any(c < 1 for c in cells):
        raise InputError("every axis needs at least one cell")
    if periodic and any(c < 4 for c in cells):
        raise InputError("periodic axes need at least 4 cells")
    sizes = cells if periodic else tuple(c + 1 for c in cells)
    strides = [1] * d
    for k in range(d - 2, -1, -1):
        strides[k] = strides[k + 1] * sizes[k + 1]
    # Each point has a place on every axis: 0 first, 1 inside, 2 last (axes
    # have at least two points).  The place decides which steps wrap or
    # leave the box, so every point of one kind has the same id offsets.
    kinds = [0]
    for size in sizes:
        along = [0] + [1] * (size - 2) + [2]
        kinds = [kind * 3 + place for kind in kinds for place in along]
    offsets = [off for off in product((0, 1), repeat=d) if any(off)]
    wrap = [(sizes[k] - 1) * strides[k] for k in range(d)]  # a step across the seam

    def moves(kind):
        places = [kind // 3 ** (d - 1 - k) % 3 for k in range(d)]
        up, down = [], []  # id offsets to p + off and to p - off, off in product order
        for off in offsets:
            axes = [k for k in range(d) if off[k]]
            if periodic or all(places[k] != 2 for k in axes):
                up.append(sum(-wrap[k] if places[k] == 2 else strides[k] for k in axes))
            if periodic or all(places[k] != 0 for k in axes):
                down.append(sum(wrap[k] if places[k] == 0 else -strides[k] for k in axes))
        # Neighbours are added in the order of the edges (p, p + off) listed
        # by p ascending, then off in product order: lower backward ones, the
        # forward ones, higher backward ones (across a seam).  That order
        # fixes each set's table layout, so its iteration order too.
        down.sort()
        return [b for b in down if b < 0] + up + [b for b in down if b > 0]

    table = {}
    ids = list(range(len(kinds)))
    nbrs = []
    for v, kind in enumerate(kinds):
        deltas = table.get(kind)
        if deltas is None:
            deltas = table[kind] = moves(kind)
        # ids from the shared list, not a fresh int per entry
        nbrs.append({ids[v + delta] for delta in deltas})
    points = list(product(*(range(s) for s in sizes)))
    coords = None
    if not periodic:
        if origin is None:
            origin = (Fraction(0),) * d
        if step is None:
            step = Fraction(1)
        tables = [[float(origin[k] + i * step) for i in range(sizes[k])] for k in range(d)]
        coords = list(product(*tables))
    return SimplicialGraph._from_neighbors(nbrs, points, coords, dimension=d)


def random_sphere(seed: int, refinements: int) -> SimplicialGraph:
    """Random 2-sphere: the icosahedron after repeated random edge splits.

    Splitting an edge (a,b) of a 2-graph removes it and joins a fresh vertex
    to a, b and their two common neighbors, which preserves the 2-sphere
    property.  Restricted to 2-graphs by construction.
    """
    if refinements < 0:
        raise InputError("refinements must be nonnegative")
    rng = random.Random(seed)
    base = icosahedron()
    nbrs = [set(s) for s in base.neighbors]
    coords = [list(p) for p in base.coordinates]
    # the sorted edge list, kept in place: every new edge (u, x) has the newest id x
    edge_list = base.edges()
    for _ in range(refinements):
        a, b = edge_list.pop(rng.randrange(len(edge_list)))
        common = sorted(nbrs[a] & nbrs[b])
        if len(common) != 2:
            raise InputError("edge split applies to 2-graphs only")
        x = len(nbrs)
        nbrs[a].discard(b)
        nbrs[b].discard(a)
        nbrs.append(set())
        for u in (a, b, *common):
            nbrs[x].add(u)
            nbrs[u].add(x)
            bisect.insort(edge_list, (u, x))
        mid = [(coords[a][k] + coords[b][k]) / 2.0 for k in range(3)]
        norm = math.sqrt(sum(c * c for c in mid)) or 1.0
        scale = math.sqrt(sum(c * c for c in coords[a])) / norm
        coords.append([c * scale for c in mid])
    return SimplicialGraph(len(nbrs), edge_list, coordinates=[tuple(p) for p in coords])


# -- name based dispatch (used by the command line driver) ------------------

_SPEC_RE = re.compile(r"^([a-z0-9_\-]+)\s*(?:\((.*)\))?$")


def build(spec: str) -> SimplicialGraph:
    """Build a catalog graph from a compact text form.

    Examples: "octahedron", "16-cell", "cycle(12)", "wheel(7)",
    "cross_polytope(3)", "icosahedron", "kuhn(4x4,periodic)",
    "random_sphere(7,40)".
    """
    m = _SPEC_RE.match(spec.strip().lower())
    if not m:
        raise InputError(f"unrecognized graph spec {spec!r}")
    name, raw_args = m.group(1), m.group(2)
    args = [a.strip() for a in raw_args.split(",") if a.strip()] if raw_args else []

    def ints(count):
        if len(args) != count:
            raise InputError(f"{name} takes {count} integer argument(s), got {len(args)}")
        try:
            return [int(a) for a in args]
        except ValueError:
            raise InputError(f"{name}: arguments must be integers, got {raw_args!r}") from None

    def capped(vertices, edges, builder, *builder_args):
        # the counts come from the arguments, so an oversized spec builds nothing
        _check_size(name, vertices, edges)
        return builder(*builder_args)

    if name == "octahedron":
        return octahedron()
    if name in ("16-cell", "sixteen_cell"):
        return sixteen_cell()
    if name == "icosahedron":
        return icosahedron()
    if name == "cycle":
        (n,) = ints(1)
        return capped(n, n, cycle, n)
    if name == "wheel":
        (n,) = ints(1)
        return capped(n, 2 * n, wheel, n)
    if name in ("cross_polytope", "cross-polytope"):
        (d,) = ints(1)
        return capped(2 * d + 2, 2 * d * (d + 1), cross_polytope, d)
    if name == "kuhn":
        if not args or args[1:] not in ([], ["periodic"]):
            raise InputError(f"expected kuhn(<n>x<n>...[,periodic]), got {spec!r}")
        try:
            dims = tuple(int(c) for c in args[0].split("x"))
        except ValueError:
            raise InputError(f"kuhn axis sizes must be integers, got {args[0]!r}") from None
        periodic = len(args) == 2
        check_kuhn_size(name, dims, periodic)
        return kuhn_grid(len(dims), dims, periodic)
    if name == "random_sphere":
        seed, refinements = ints(2)
        # each split adds one vertex and three edges to the icosahedron's 12 and 30
        return capped(12 + refinements, 30 + 3 * refinements, random_sphere, seed, refinements)
    if name == "random_3_sphere":
        seed, refinements = ints(2)
        return suspension(capped(14 + refinements, 54 + 5 * refinements,
                                 random_sphere, seed, refinements))
    raise InputError(f"unknown catalog graph {name!r}")
