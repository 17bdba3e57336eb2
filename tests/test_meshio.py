"""OFF and OBJ export of embedded surfaces.

The OFF check parses the text back with a minimal independent reader
instead of trusting the writer's own vocabulary.
"""

from fractions import Fraction

import pytest

from levelgraph.catalog import octahedron
from levelgraph.core import SimplicialGraph
from levelgraph.errors import MissingCoordinates
from levelgraph.levelset import level_surface
from levelgraph.meshio import export_mesh, to_obj, to_off
from levelgraph.refine import barycentric


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
