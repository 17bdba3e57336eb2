"""OFF and OBJ export of embedded surfaces and curves.

A graph with a triangle must be a 2-graph and becomes a triangle mesh
(oriented consistently when possible) from levelset.surface_triangles,
whose one walk around each unit sphere checks the graph and lists its
triangles; a graph with edges and no triangle becomes polyline segments,
anything lower bare points.  Which one is read from adjacency (some edge
whose two ends share a neighbour), so export builds no clique complex.
Coordinates, float tuples on every graph, are padded or truncated to
three components since both formats are 3D.
"""

from __future__ import annotations

from typing import Union

from .core import SimplicialGraph
from .errors import MissingCoordinates
from .levelset import LevelSurfaceGraph, surface_triangles
from .refine import RefinedGraph

Surface = Union[SimplicialGraph, LevelSurfaceGraph, RefinedGraph]


def _graph_of(surface: Surface) -> SimplicialGraph:
    """The graph itself, or the .graph of a level surface or a refinement."""
    return getattr(surface, "graph", surface)


def _points(g: SimplicialGraph) -> list[tuple[float, float, float]]:
    """The vertex coordinates, which a graph holds as float tuples, as 3D points."""
    if g.n > 0 and g.coordinates is None:
        raise MissingCoordinates("surface has no vertex coordinates")
    return [p[:3] + (0.0,) * (3 - len(p)) for p in g.coordinates or ()]


def _faces(g: SimplicialGraph) -> list[tuple[int, int, int]]:
    """The oriented triangles when some edge's two ends share a neighbour
    (the graph has a triangle), else none."""
    nbrs = g.neighbors
    if any(not nbrs[u].isdisjoint(nbrs[v]) for u in range(g.n) for v in nbrs[u]):
        return list(surface_triangles(g).triangles)
    return []


def to_off(surface: Surface) -> str:
    g = _graph_of(surface)
    points = _points(g)
    faces = _faces(g)
    lines = ["OFF", f"{len(points)} {len(faces)} 0"]
    lines += [f"{x} {y} {z}" for x, y, z in points]
    lines += [f"3 {a} {b} {c}" for a, b, c in faces]
    return "\n".join(lines) + "\n"


def to_obj(surface: Surface) -> str:
    g = _graph_of(surface)
    points = _points(g)
    lines = [f"v {x} {y} {z}" for x, y, z in points]
    faces = _faces(g)
    if faces:
        lines += [f"f {a + 1} {b + 1} {c + 1}" for a, b, c in faces]
    elif any(g.neighbors):  # a graph with edges and no triangle
        lines += [f"l {u + 1} {v + 1}" for u, v in g.edges()]
    return "\n".join(lines) + ("\n" if lines else "")


def export_mesh(surface: Surface, fmt: str, path: str) -> str:
    """Write the surface to path in the given format; returns the path."""
    if fmt == "off":
        text = to_off(surface)
    elif fmt == "obj":
        text = to_obj(surface)
    else:
        raise ValueError(f"unknown mesh format {fmt!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path
