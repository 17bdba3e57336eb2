"""Level hypersurfaces of vertex functions.

For f on the vertices of g and a level c outside the value set, the surface
{f=c} is the containment graph (refine.containment_graph) on the simplices
of g on which f-c changes sign.  With several constraints the simultaneous
locus keeps the simplices of dimension at least k on which every f_i-c_i
changes sign.  Each vertex's side of each level is decided once, on
integers: x - c has the sign of x.numerator * c.denominator -
c.numerator * x.denominator (denominators are positive), and a zero is a
level hitting the vertex.  A simplex straddles a level when it has
vertices on both sides.  Such a simplex is a clique, so each of its
vertices has a neighbour across the level: only the cliques of the band
(the vertices with a neighbour across every level) are walked, and the
walk (core._clique_walk) keeps a clique only when its vertices' side
masks show both sides of every level, so no clique is tested after it is
listed.  When g carries coordinates, they are interpolated, reading the
sides decided for the band, before the graph is built.

A surface's triangles come from one walk around each unit sphere, which
also checks that the graph is a 2-graph: no separate verification and no
clique complex (_triangles, which lagrange reads too).  They are oriented
by crossing each edge to its other triangle through an index of the
edges, which also decides orientability.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .core import Simplex, SimplicialGraph, _clique_walk
from .errors import DimensionExceeded, InputError, LevelHitsVertex, MissingCoordinates, NotASurface
from .rational import as_fraction, as_fraction_vector
from .refine import containment_graph
from .topology import _cycle


@dataclass(frozen=True)
class LevelSurfaceGraph:
    graph: SimplicialGraph
    parent: SimplicialGraph
    origin: tuple[Simplex, ...]           # originating parent simplex per vertex
    functions: tuple[tuple[Fraction, ...], ...]
    levels: tuple[Fraction, ...]


def _locus(g, functions, levels) -> LevelSurfaceGraph:
    """Keep the simplices of dimension >= len(levels) straddling every level.

    Every straddling simplex lies in the band: the vertices that have a
    neighbour on the other side of every level.  A simplex straddling a
    level has vertices on both sides of it, and it is a clique, so each of
    its vertices is adjacent to one across.  Hence only the cliques of the
    band are walked, and the straddle test is made inside the walk: bit 2i
    of a vertex's mask says it is below level i and bit 2i + 1 above it,
    and a clique straddles every level when its masks OR to all 2k bits.
    The walk keeps the order of g.simplices(), so the origin is the one a
    filter of the whole complex gives.
    """
    belows = []
    masks = [0] * g.n
    for i, (values, c) in enumerate(zip(functions, levels)):
        cn, cd = c.numerator, c.denominator
        sides = [x.numerator * cd - cn * x.denominator for x in values]
        if 0 in sides:
            raise LevelHitsVertex(sides.index(0), c)
        below, above = 1 << 2 * i, 2 << 2 * i
        masks = [m | (below if side < 0 else above) for m, side in zip(masks, sides)]
        belows.append({v for v, side in enumerate(sides) if side < 0})
    nbrs = g.neighbors
    band = [v for v in range(g.n)
            if all(not nbrs[v].isdisjoint(b) if v not in b else not b.issuperset(nbrs[v])
                   for b in belows)]
    k = len(levels)
    # a clique of fewer than k + 1 vertices can straddle every level too (an
    # edge from below both levels to above both), so groups below k are cut
    groups = _clique_walk(nbrs, band, masks, (1 << 2 * k) - 1)
    origin = tuple(s for group in groups[k:] for s in group)
    coords = None
    if g.coordinates is not None:
        coords = _interpolate(g, origin, functions, levels, belows)
    return LevelSurfaceGraph(containment_graph(origin, k, coords), g, origin, functions, levels)


def level_surface(g: SimplicialGraph, f: Sequence, c) -> LevelSurfaceGraph:
    """The hypersurface {f=c}; requires c outside the value set of f.

    In a d-graph the result is empty or a (d-1)-graph whenever c avoids
    f(V); levels hitting a vertex value raise LevelHitsVertex instead of
    silently switching to another convention.
    """
    return _locus(g, (as_fraction_vector(f, g.n),), (as_fraction(c),))


def simultaneous_locus(g: SimplicialGraph, fs: Sequence[Sequence], cs: Sequence) -> LevelSurfaceGraph:
    """Common level locus {f_1=c_1, ..., f_k=c_k} on simplices of dimension >= k."""
    if len(fs) == 0:
        raise InputError("at least one constraint required")
    if len(fs) != len(cs):
        raise InputError("need one level per function")
    k = len(fs)
    d = g.dimension()
    if k > d:
        raise DimensionExceeded(f"{k} constraints exceed complex dimension {d}")
    functions = tuple(as_fraction_vector(f, g.n) for f in fs)
    levels = tuple(as_fraction(c) for c in cs)
    return _locus(g, functions, levels)


def interpolate_coordinates(g: SimplicialGraph, origin: Sequence[Simplex],
                            functions: Sequence[Sequence[Fraction]],
                            levels: Sequence[Fraction]) -> tuple[tuple[float, ...], ...]:
    """Linear crossing points on g for the simplices of a level set.

    An origin edge gets the point where the (first straddling) function
    crosses its level; a higher simplex gets the centroid of the crossing
    points on its sign-changing edges, collected over all constraints.  The
    ratio t = (c - f(a)) / (f(b) - f(a)) along edge ab is one correctly
    rounded int division of numerators and denominators, with a positive
    divisor: the float that float() gives for the Fraction, bit for bit.
    """
    if g.coordinates is None:
        raise MissingCoordinates("parent graph has no coordinates")
    belows = [{v for v, x in enumerate(values) if x < c} for values, c in zip(functions, levels)]
    return _interpolate(g, origin, functions, levels, belows)


def _interpolate(g, origin, functions, levels, belows) -> tuple[tuple[float, ...], ...]:
    """interpolate_coordinates, given for each level the set of vertices below it."""
    coords = g.coordinates
    # per constraint: crossing points by edge, computed once
    cuts = [({}, values, c.numerator, c.denominator, below)
            for values, c, below in zip(functions, levels, belows)]
    points = []
    for simplex in origin:
        crossings = []
        for memo, values, cn, cd, below in cuts:
            for a, b in combinations(simplex, 2):
                if (a in below) == (b in below):
                    continue
                p = memo.get((a, b))
                if p is None:
                    # t = (c - va) / (vb - va) over integers, one true division
                    va, vb = values[a], values[b]
                    na, da, nb, db = va.numerator, va.denominator, vb.numerator, vb.denominator
                    num = (cn * da - na * cd) * db
                    den = (nb * da - na * db) * cd
                    t = num / den if den > 0 else -num / -den
                    # by columns, each from a list: quicker than a generator, same floats
                    p = memo[a, b] = tuple([u + t * (w - u) for u, w in zip(coords[a], coords[b])])
                crossings.append(p)
        if not crossings:
            raise InputError(f"origin simplex {simplex} has no sign-changing edge")
        m = len(crossings)
        points.append(tuple([sum(column) / m for column in zip(*crossings)]))
    return tuple(points)


@dataclass(frozen=True)
class SurfaceTriangles:
    triangles: tuple[tuple[int, int, int], ...]
    orientable: bool


def _triangles(graph) -> list[tuple[int, int, int]]:
    """The triangles of a 2-graph in the order of simplices()[2], from one
    walk around each unit sphere S(x), in increasing x: each is listed at
    its least vertex x, from consecutive vertices of the walk.  NotASurface
    names the least x whose S(x) is not a cycle of length >= 4, the witness
    and message of 2-graph verification."""
    tris = []
    for x in range(graph.n):
        ring = _cycle(graph, graph.neighbors[x])
        if ring is None:
            raise NotASurface(f"2-graph verification said no (witness {x!r})")
        u = ring[-1]
        for v in ring:
            if u > x and v > x:
                tris.append((x, u, v) if u < v else (x, v, u))
            u = v
    tris.sort()
    return tris


def surface_triangles(s) -> SurfaceTriangles:
    """Triangles of a 2-graph with a best-effort consistent orientation.

    Accepts a level surface or a plain graph (NotASurface: see _triangles).
    In a 2-graph each edge lies in two triangles, indexed from the sorted
    triangle list, so (a, b, c) crosses ab to the other one, oriented
    (b, a, w).  It is orientable iff every triangle reached again already
    runs ab as (b, a); a parity obstruction clears the flag instead of
    failing.
    """
    graph = s.graph if hasattr(s, "graph") else s
    n = graph.n
    tris = _triangles(graph)
    # edge a < b, keyed a * n + b, to the sum of its two triangles' indices
    pair_sum: dict[int, int] = {}
    for i, (x, y, z) in enumerate(tris):
        for e in (x * n + y, x * n + z, y * n + z):
            pair_sum[e] = pair_sum.get(e, 0) + i
    oriented = [None] * len(tris)
    orientable = True
    for seed, t in enumerate(tris):
        if oriented[seed] is not None:
            continue
        oriented[seed] = t
        stack = [seed]
        while stack:
            i = stack.pop()
            x, y, z = oriented[i]
            for a, b in ((x, y), (y, z), (z, x)):
                j = pair_sum[a * n + b if a < b else b * n + a] - i
                o = oriented[j]
                if o is None:
                    p, q, r = tris[j]
                    oriented[j] = (b, a, p + q + r - a - b)  # opposite direction along ab
                    stack.append(j)
                elif o[o.index(b) - 2] != a:  # o does not run ab as (b, a)
                    orientable = False
    return SurfaceTriangles(tuple(oriented), orientable)
