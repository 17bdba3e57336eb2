"""Polynomial parsing and exact variety triangulation on Kuhn grids.

Validates:
    - the restricted arithmetic grammar, acceptances and rejections
    - exact rational evaluation
    - circle and sphere triangulations verifying as 1- and 2-graphs
    - the singular cross x*y = 0 failing regularity with a witness
    - domain validation and step divisibility
"""

from fractions import Fraction

import pytest

from levelgraph.errors import InputError, UnparsablePolynomial
from levelgraph.topology import components, is_dgraph
from levelgraph.sard import EPSILON
from levelgraph.variety import parse_polynomial, triangulate_variety


def test_parse_and_evaluate():
    p = parse_polynomial("(x+y)*(x-y) + 3/2", 2)
    assert p.evaluate([Fraction(3), Fraction(1)]) == Fraction(19, 2)
    q = parse_polynomial("x1^3 - 2*x2", 2)
    assert q.evaluate([Fraction(2), Fraction(1, 2)]) == 7


def test_variable_aliases():
    p = parse_polynomial("x + 2*y + 3*z + 4*w", 4)
    assert p.evaluate([Fraction(1)] * 4) == 10
    same = parse_polynomial("x1 + 2*x2 + 3*x3 + 4*x4", 4)
    assert same.evaluate([Fraction(1)] * 4) == 10


def test_exact_fractions_no_floats():
    p = parse_polynomial("x^2 - 1/3", 1)
    v = p.evaluate([Fraction(1, 3)])
    assert v == Fraction(1, 9) - Fraction(1, 3)


@pytest.mark.parametrize("bad", [
    "x/y",            # division by a variable
    "x^-1",           # negative exponent
    "x^(1/2)",        # fractional exponent
    "sin(x)",         # function calls
    "x3",             # unknown variable for nvars=2
    "1/0",            # zero denominator
    "x y",            # missing operator
    "",               # empty
])
def test_parser_rejections(bad):
    with pytest.raises(UnparsablePolynomial):
        parse_polynomial(bad, 2)


def test_circle_is_single_cycle():
    tr = triangulate_variety(["x^2 + y^2 - 2"], [(-2, 2), (-2, 2)], Fraction(1, 4))
    s = tr.stages[-1]
    assert s.verdict.ok
    assert len(components(s.surface.graph)) == 1
    assert all(s.surface.graph.degree(v) == 2 for v in range(s.surface.graph.n))


def test_sphere_passes_2_graph():
    tr = triangulate_variety(["x^2 + y^2 + z^2 - 2"], [(-2, 2)] * 3, Fraction(1, 2))
    s = tr.stages[-1]
    assert s.verdict.ok
    assert is_dgraph(s.surface.graph, 2).ok


def test_surface_has_coordinates():
    tr = triangulate_variety(["x^2 + y^2 - 2"], [(-2, 2), (-2, 2)], Fraction(1, 2))
    g = tr.stages[-1].surface.graph
    assert g.coordinates is not None
    assert len(g.coordinates) == g.n
    assert all(len(p) == 2 for p in g.coordinates)


def test_singular_cross_fails_with_witness():
    tr = triangulate_variety(["x*y"], [(-2, 2), (-2, 2)], Fraction(1, 2))
    s = tr.stages[-1]
    assert s.perturbed            # 0 sits in the value set, so the level moved
    assert s.verdict.verdict == "no"
    assert s.verdict.witness is not None


def test_perturbation_is_tiny():
    tr = triangulate_variety(["x*y"], [(-2, 2), (-2, 2)], Fraction(1, 2))
    s = tr.stages[-1]
    assert s.level != 0
    assert abs(s.level) <= 3 * EPSILON


def test_two_constraints_curve():
    # sphere cut by a plane: a circle in the grid
    tr = triangulate_variety(["x^2 + y^2 + z^2 - 2", "z - 1/3"],
                             [(-2, 2)] * 3, Fraction(1, 2))
    s = tr.stages[-1]
    assert s.verdict.ok
    assert all(s.surface.graph.degree(v) == 2 for v in range(s.surface.graph.n))


def test_step_must_divide_box():
    with pytest.raises(InputError):
        triangulate_variety(["x^2 - 1"], [(0, 1)], Fraction(3, 7))


def test_domain_validation():
    with pytest.raises(InputError):
        triangulate_variety(["x^2 - 1"], [(1, -1)], Fraction(1, 2))
    with pytest.raises(InputError):
        triangulate_variety(["x + y"], [(0, 1)], Fraction(1, 2))  # nvars mismatch
