"""OFF and OBJ export of embedded surfaces.

The OFF check parses the text back with a minimal independent reader
instead of trusting the writer's own vocabulary.  The export of variety
stage surfaces (a sphere and a torus at step 1/2, and a curve) is compared
byte for byte with a writer that takes the triangles from the clique
complex after a separate 2-graph check, and it runs with the clique
enumeration disabled.  No exported triangle of a perturbed variety (the
sphere and the torus) repeats a corner point.
"""

from fractions import Fraction
from itertools import zip_longest

import pytest

from levelgraph.catalog import octahedron
from levelgraph.core import SimplicialGraph
from levelgraph.errors import MissingCoordinates, NotASurface
from levelgraph.levelset import level_surface
from levelgraph.meshio import export_mesh, to_obj, to_off
from levelgraph.refine import barycentric
from levelgraph.topology import is_dgraph
from levelgraph.variety import parse_polynomial, triangulate_variety


def read_off(text):
    lines = [l for l in text.splitlines() if l.strip()]
    assert lines[0] == "OFF"
    nv, nf, ne = (int(x) for x in lines[1].split())
    verts = [tuple(float(x) for x in l.split()) for l in lines[2:2 + nv]]
    faces = []
    for l in lines[2 + nv:2 + nv + nf]:
        parts = [int(x) for x in l.split()]
        assert parts[0] == len(parts) - 1
        faces.append(tuple(parts[1:]))
    return verts, faces, ne


def test_octahedron_off():
    verts, faces, ne = read_off(to_off(octahedron()))
    assert len(verts) == 6 and len(faces) == 8 and ne == 0
    assert all(len(p) == 3 for p in verts)
    assert all(len(f) == 3 for f in faces)
    # oriented: each undirected edge appears once in each direction
    directed = set()
    for a, b, c in faces:
        for e in ((a, b), (b, c), (c, a)):
            assert e not in directed
            directed.add(e)
    assert all((b, a) in directed for a, b in directed)


def test_level_surface_off():
    g = octahedron()
    f = [Fraction(x) for x in (1, 2, 3, 4, 5, 6)]
    surf = level_surface(g, f, Fraction(5, 2))
    verts, faces, _ = read_off(to_off(surf))
    assert len(verts) == surf.graph.n
    assert faces == []  # a curve has no triangles


def test_refinement_exports_its_graph():
    refined = barycentric(octahedron())
    assert to_off(refined) == to_off(refined.graph)
    assert to_obj(refined) == to_obj(refined.graph)


def test_obj_surface():
    text = to_obj(octahedron())
    v_lines = [l for l in text.splitlines() if l.startswith("v ")]
    f_lines = [l for l in text.splitlines() if l.startswith("f ")]
    assert len(v_lines) == 6 and len(f_lines) == 8
    for l in f_lines:
        idx = [int(x) for x in l.split()[1:]]
        assert all(1 <= i <= 6 for i in idx)  # OBJ indices are 1-based


def test_obj_curve_uses_polylines():
    g = octahedron()
    f = [Fraction(x) for x in (1, 2, 3, 4, 5, 6)]
    surf = level_surface(g, f, Fraction(5, 2))
    text = to_obj(surf)
    l_lines = [l for l in text.splitlines() if l.startswith("l ")]
    assert len(l_lines) == len(surf.graph.edges())
    assert not any(l.startswith("f ") for l in text.splitlines())


def test_coordinates_padded_to_3d():
    g = SimplicialGraph(2, [(0, 1)], coordinates=[(0.0, 1.0), (2.0, 3.0)])
    verts, _, _ = read_off(to_off(g))
    assert verts == [(0.0, 1.0, 0.0), (2.0, 3.0, 0.0)]


def test_missing_coordinates():
    bare = SimplicialGraph(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(MissingCoordinates):
        to_off(bare)
    with pytest.raises(MissingCoordinates):
        to_obj(bare)


def test_4d_coordinates_truncated():
    g = SimplicialGraph(2, [(0, 1)],
                        coordinates=[(1.0, 2.0, 3.0, 4.0), (5.0, 6.0, 7.0, 8.0)])
    verts, _, _ = read_off(to_off(g))
    assert verts == [(1.0, 2.0, 3.0), (5.0, 6.0, 7.0)]


def test_empty_graph_exports():
    g = SimplicialGraph(0, [])
    verts, faces, _ = read_off(to_off(g))
    assert verts == [] and faces == []
    assert to_obj(g) == ""


def test_export_mesh_writes_file(tmp_path):
    p = tmp_path / "oct.off"
    out = export_mesh(octahedron(), "off", str(p))
    assert out == str(p)
    assert p.read_text().startswith("OFF\n6 8 0\n")
    with pytest.raises(ValueError):
        export_mesh(octahedron(), "stl", str(tmp_path / "x.stl"))


# -- parity with a writer that reads the clique complex ------------------------


def _complex_faces(g):
    """The triangles of a graph whose clique complex reaches dimension 2,
    after a separate 2-graph check, each edge crossed through its link."""
    groups = g.simplices()
    if len(groups) < 3:
        return []
    report = is_dgraph(g, 2)
    if not report.ok:
        raise NotASurface(f"2-graph verification said {report.verdict} "
                          f"(witness {report.witness!r})")
    oriented = {}
    for seed in groups[2]:
        if seed in oriented:
            continue
        oriented[seed] = seed
        stack = [seed]
        while stack:
            x, y, z = oriented[stack.pop()]
            for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
                (w,) = (g.neighbors[a] & g.neighbors[b]) - {c}
                across = tuple(sorted((a, b, w)))
                if across not in oriented:
                    oriented[across] = (b, a, w)
                    stack.append(across)
    return [oriented[t] for t in groups[2]]


def _complex_points(g):
    out = []
    for p in g.coordinates:
        p = tuple(float(x) for x in p[:3])
        out.append(p + (0.0,) * (3 - len(p)))
    return out


def _complex_off(g):
    points, faces = _complex_points(g), _complex_faces(g)
    lines = ["OFF", f"{len(points)} {len(faces)} 0"]
    lines += [f"{x} {y} {z}" for x, y, z in points]
    lines += [f"3 {a} {b} {c}" for a, b, c in faces]
    return "\n".join(lines) + "\n"


def _complex_obj(g):
    lines = [f"v {x} {y} {z}" for x, y, z in _complex_points(g)]
    groups = g.simplices()
    if len(groups) >= 3:
        lines += [f"f {a + 1} {b + 1} {c + 1}" for a, b, c in _complex_faces(g)]
    elif len(groups) == 2:
        lines += [f"l {u + 1} {v + 1}" for u, v in g.edges()]
    return "\n".join(lines) + ("\n" if lines else "")


BOX3 = [(Fraction(-2), Fraction(2))] * 3
STAGE_SURFACES = {
    "sphere": (["x^2+y^2+z^2-2"], BOX3),
    "torus": (["(x^2+y^2+z^2+3)^2-16*(x^2+y^2)"],
              [(Fraction(-4), Fraction(4))] * 2 + [(Fraction(-2), Fraction(2))]),
    "curve": (["x^2+y^2+z^2-2", "x+1/3*y+1/7*z-1/5"], BOX3),
}


def _stage_surface(name):
    polys, box = STAGE_SURFACES[name]
    trace = triangulate_variety([parse_polynomial(p, len(box)) for p in polys], box,
                                Fraction(1, 2))
    return trace.stages[-1].surface


def _first_difference(text, want):
    """None when the texts are equal, else the first line number where they
    differ with both lines: a short report where a full diff would be slow."""
    if text == want:
        return None
    pairs = enumerate(zip_longest(text.split("\n"), want.split("\n")))
    return next((i, a, b) for i, (a, b) in pairs if a != b)


@pytest.mark.parametrize("name", STAGE_SURFACES)
def test_export_matches_the_clique_complex_writer(name):
    surface = _stage_surface(name)
    off, obj = to_off(surface), to_obj(surface)
    assert _first_difference(off, _complex_off(surface.graph)) is None
    assert _first_difference(obj, _complex_obj(surface.graph)) is None
    kinds = {line.split()[0] for line in obj.splitlines()}
    assert kinds == ({"v", "l"} if name == "curve" else {"v", "f"})


@pytest.mark.parametrize("name", STAGE_SURFACES)
def test_export_enumerates_no_cliques(name, monkeypatch):
    surface = _stage_surface(name)
    assert surface.graph._simplices is None

    def refuse(*args):
        raise AssertionError("mesh export enumerated cliques")

    monkeypatch.setattr(SimplicialGraph, "cliques", refuse)
    off, obj = to_off(surface), to_obj(surface)
    monkeypatch.undo()
    assert off.startswith("OFF\n") and obj.startswith("v ")
    assert surface.graph._simplices is None


@pytest.mark.parametrize("name", ["sphere", "torus"])
def test_perturbed_surfaces_have_no_repeated_corner(name):
    # both levels hit lattice values and are moved into the gap above them
    surface = _stage_surface(name)
    verts, faces, _ = read_off(to_off(surface))
    assert faces
    assert all(len({verts[i] for i in face}) == 3 for face in faces)
