"""JSON graph documents: exact rationals, diagnostics, canonical output."""

import json
from fractions import Fraction

import pytest

from levelgraph import graphdoc
from levelgraph.catalog import octahedron
from levelgraph.errors import InputError
from levelgraph.graphdoc import (FORMAT_VERSION, MAX_VERTICES, GraphDocument, dumps, load,
                                 loads, save)
from levelgraph.levelset import level_surface
from levelgraph.rational import MAX_EXPONENT, as_fraction, as_fraction_vector

# documents json.loads cannot turn into values: an integer over the
# int-digit limit, nesting over the recursion limit, and two non-finite floats
BAD_DOCUMENTS = {
    "huge-integer": '{"vertices": ' + "9" * 5000 + ', "edges": []}',
    "deep-nesting": "[" * 100_000,
    "nan": '{"vertices": 3, "edges": [[0, 1]], "values": {"f": [NaN, 1, 2]}}',
    "infinity": '{"vertices": 3, "edges": [[0, 1]], "values": {"f": [1, -Infinity, 2]}}',
}


def test_round_trip_is_idempotent():
    doc = GraphDocument(octahedron(), {"f": [Fraction(i, 3) for i in range(6)]})
    text = dumps(doc)
    again = dumps(loads(text))
    assert text == again


def test_rationals_survive_exactly():
    doc = loads(dumps(GraphDocument(octahedron(),
                                    {"f": [Fraction(1, 3)] * 6})))
    assert doc.values["f"] == [Fraction(1, 3)] * 6


def test_values_accept_ints_and_strings():
    doc = loads("""{"vertices": 2, "edges": [[0, 1]],
                    "values": {"f": [3, "-7/2"]}}""")
    assert doc.values["f"] == [Fraction(3), Fraction(-7, 2)]


def test_vertex_count_or_labels():
    by_count = loads('{"vertices": 3, "edges": [[0, 1]]}')
    assert by_count.graph.n == 3 and by_count.graph.labels is None
    by_labels = loads('{"vertices": ["a", "b"], "edges": [[0, 1]]}')
    assert by_labels.graph.n == 2
    assert list(by_labels.graph.labels) == ["a", "b"]


def test_coordinates_round_trip():
    g = octahedron()
    assert g.coordinates is not None
    doc = loads(dumps(GraphDocument(g)))
    assert doc.graph.coordinates == g.coordinates


def test_bad_json_reports_position():
    with pytest.raises(InputError, match=r"line 2, column"):
        loads('{"vertices": 2,\n "edges": }')


@pytest.mark.parametrize("name", list(BAD_DOCUMENTS))
def test_undecodable_documents_are_input_errors(name):
    with pytest.raises(InputError):
        loads(BAD_DOCUMENTS[name])


def test_non_finite_values_report_path():
    with pytest.raises(InputError, match=r"values\['f'\]\[0\]: nan is not a rational"):
        loads(BAD_DOCUMENTS["nan"])
    with pytest.raises(InputError, match=r"values\['f'\]\[1\]: -inf is not a rational"):
        loads(BAD_DOCUMENTS["infinity"])
    for x in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(InputError, match="is not a rational value"):
            as_fraction(x)
    with pytest.raises(InputError):
        level_surface(octahedron(), [float("nan"), 1, 2, 3, 4, 5], 0)


@pytest.mark.parametrize("text", ["NaN", "-Infinity", "true", "1" + "0" * 400, '"1e999"', '"nan"'])
def test_coordinates_must_be_finite_numbers(text):
    doc = '{"vertices": 2, "edges": [[0, 1]], "coordinates": [[0, 0], [%s, 1]]}' % text
    with pytest.raises(InputError, match=r"coordinates\[1\]: expected a list of finite numbers"):
        loads(doc)


def test_points_of_unequal_length_keep_the_document_message():
    doc = '{"vertices": 2, "edges": [[0, 1]], "coordinates": [[0, 0], [1, 1, 1]]}'
    with pytest.raises(InputError, match=r"^coordinates: entries differ in length$"):
        loads(doc)


def test_decimal_exponents_are_capped():
    assert as_fraction(f"1e{MAX_EXPONENT}") == 10 ** MAX_EXPONENT
    assert as_fraction(f"-2.5E-{MAX_EXPONENT}") == Fraction(-25, 10 ** (MAX_EXPONENT + 1))
    assert as_fraction("1e0_0_3") == 1000
    for text in (f"1e{MAX_EXPONENT + 1}", "1e10000000", "1e-10000000", "1e" + "9" * 5000):
        with pytest.raises(InputError, match=f"over {MAX_EXPONENT} in magnitude"):
            as_fraction(text)
    with pytest.raises(InputError, match=r"values\['f'\]\[1\]: exponent"):
        loads('{"vertices": 2, "edges": [[0, 1]], "values": {"f": [1, "1e10000000"]}}')


def test_vertex_count_is_capped_before_the_graph_is_built(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("SimplicialGraph built for a document over the cap")

    monkeypatch.setattr(graphdoc, "SimplicialGraph", unreachable)
    for vertices in (MAX_VERTICES + 1, [0] * (MAX_VERTICES + 1)):
        with pytest.raises(InputError, match=f"cap of {MAX_VERTICES}"):
            loads(json.dumps({"vertices": vertices, "edges": []}))


def test_bad_edge_reports_index():
    with pytest.raises(InputError, match=r"edges\[1\]"):
        loads('{"vertices": 3, "edges": [[0, 1], [1, 1]]}')
    with pytest.raises(InputError, match=r"edges\[0\].*out of range"):
        loads('{"vertices": 2, "edges": [[0, 5]]}')
    with pytest.raises(InputError, match=r"edges\[1\].*duplicate"):
        loads('{"vertices": 2, "edges": [[0, 1], [1, 0]]}')


def test_bad_value_entry_reports_path():
    with pytest.raises(InputError, match=r"values\['f'\]\[1\]"):
        loads('{"vertices": 2, "edges": [[0, 1]], "values": {"f": [1, "x"]}}')
    with pytest.raises(InputError, match=r"values\['f'\].*expected 2"):
        loads('{"vertices": 2, "edges": [[0, 1]], "values": {"f": [1]}}')


def test_unsupported_version():
    with pytest.raises(InputError, match="format_version"):
        loads('{"format_version": 99, "vertices": 1, "edges": []}')


def test_dumps_writes_the_one_format_version():
    assert f'"format_version": {FORMAT_VERSION}' in dumps(GraphDocument(octahedron()))
    assert not hasattr(GraphDocument(octahedron()), "format_version")


def test_file_round_trip(tmp_path):
    p = tmp_path / "doc.json"
    doc = GraphDocument(octahedron(), {"h": [Fraction(5)] * 6})
    save(doc, str(p))
    back = load(str(p))
    assert back.graph.n == 6
    assert back.values["h"] == [Fraction(5)] * 6
    assert dumps(back) == dumps(doc)


def test_fraction_vectors_pass_through_unconverted():
    values = [Fraction(1, 3), Fraction(-2), Fraction(5, 7)]
    for source in (values, tuple(values), (x for x in values)):
        out = as_fraction_vector(source, 3)
        assert type(out) is tuple and all(a is b for a, b in zip(out, values))
    assert as_fraction_vector(()) == ()


def test_mixed_vectors_convert_as_each_value_does():
    out = as_fraction_vector([Fraction(1, 3), 2, "3/4", 0.5, "-1e2"], 5)
    assert out == (Fraction(1, 3), 2, Fraction(3, 4), Fraction(1, 2), -100)
    assert all(type(x) is Fraction for x in out)


@pytest.mark.parametrize("position", [0, 1, 2])
def test_a_boolean_anywhere_in_a_vector_is_rejected(position):
    values = [Fraction(1), Fraction(2), Fraction(3)]
    values[position] = True
    with pytest.raises(InputError, match="boolean is not a rational value"):
        as_fraction_vector(values)


def test_fraction_subclasses_pass_and_lengths_are_checked():
    class Tagged(Fraction):
        pass
    tagged = Tagged(1, 2)
    out = as_fraction_vector([Fraction(1), tagged], 2)
    assert out[1] is tagged
    for values in ([Fraction(1)] * 3, [1, "2", 3.0]):
        with pytest.raises(InputError, match="^expected 4 values, got 3$"):
            as_fraction_vector(values, 4)
