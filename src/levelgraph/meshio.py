"""OFF and OBJ export of embedded surfaces and curves.

2-dimensional surfaces become triangle meshes (oriented consistently when
possible), 1-dimensional graphs become polyline segments, anything lower
exports as bare points.  Coordinates are padded or truncated to three
components since both formats are 3D.
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
    if g.n > 0 and g.coordinates is None:
        raise MissingCoordinates("surface has no vertex coordinates")
    out = []
    for p in g.coordinates or ():
        p = tuple(float(x) for x in p[:3])
        out.append(p + (0.0,) * (3 - len(p)))
    return out


def _faces(g: SimplicialGraph) -> list[tuple[int, int, int]]:
    if len(g.simplices()) < 3:
        return []
    return list(surface_triangles(g).triangles)


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
    groups = g.simplices()  # the dimension is len(groups) - 1
    if len(groups) >= 3:
        lines += [f"f {a + 1} {b + 1} {c + 1}" for a, b, c in _faces(g)]
    elif len(groups) == 2:
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
