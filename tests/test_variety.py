"""Polynomial parsing and exact variety triangulation on Kuhn grids.

Validates:
    - the restricted arithmetic grammar, acceptances and rejections
    - exact rational evaluation: the integer kernel against a Fraction
      evaluator and per-operation Fraction arithmetic, at random, lattice
      and float points
    - circle and sphere triangulations verifying as 1- and 2-graphs
    - the singular cross x*y = 0 failing regularity with a witness
    - a level on the lattice moves to the middle of the gap above it, and
      cuts what a step up by 2^-64 cuts
    - domain validation and step divisibility
    - the benchmark's four varieties and lattice cases (shifted origins,
      steps 1/3 and 2/7, floats, ^0, the expressions at the caps, zeros on
      the lattice) give the stages that the edge-list grid and a Fraction
      evaluator at every point give, bit for bit
    - the grid's vertex count and edge bound are capped before it is built
    - a polynomial's node count and exponent are capped when it is parsed
"""

import ast
import random
import re
from fractions import Fraction

import pytest

from levelgraph import variety
from levelgraph.catalog import MAX_EDGES
from levelgraph.errors import InputError, UnparsablePolynomial
from levelgraph.graphdoc import MAX_VERTICES
from levelgraph.topology import components, is_dgraph
from levelgraph.sard import sard_pipeline
from levelgraph.variety import MAX_EXPONENT, MAX_NODES, parse_polynomial, triangulate_variety

from conftest import fraction_polynomial, kuhn_grid_by_edges, same_graph
from test_sard import assert_cut_as_by_a_tiny_step


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


# rejected input -> the reason in the message; None marks a syntax error,
# whose reason is the Python parser's own message
REJECTIONS = {
    "x/y": "division is allowed only between integer literals",
    "x^-1": "exponents must be nonnegative integer literals",
    "x^(1/2)": "exponents must be nonnegative integer literals",
    "sin(x)": "unsupported syntax Call",            # function calls
    "x3": "unknown variable 'x3'",                  # nvars=2
    "1/0": "division by zero",
    "x y": None,                                    # missing operator
    "": None,                                       # empty
    "x^2/3": "division is allowed only between integer literals",
    "1.5*x": "literal 1.5 is not an integer",
}


@pytest.mark.parametrize("bad", list(REJECTIONS))
def test_parser_rejections(bad):
    reason = REJECTIONS[bad]
    if reason is None:
        with pytest.raises(SyntaxError) as e:
            ast.parse(bad, mode="eval")
        reason = e.value.msg
    with pytest.raises(UnparsablePolynomial) as e:
        parse_polynomial(bad, 2)
    assert type(e.value) is UnparsablePolynomial
    assert str(e.value) == f"{bad!r}: {reason}"


def _random_expression(rng, depth, nvars):
    """(text, direct evaluator) for a random polynomial over every operator."""
    kind = rng.choice(["var", "int", "ratio"] if depth == 0 else
                      ["var", "int", "ratio", "+", "-", "*", "neg", "pos", "pow"])
    if kind == "var":
        i = rng.randrange(nvars)
        name = rng.choice([f"x{i + 1}", "xyzw"[i]] if i < 4 else [f"x{i + 1}"])
        return name, lambda p: p[i]
    if kind == "int":
        k = rng.randint(0, 9)
        return str(k), lambda p: Fraction(k)
    if kind == "ratio":
        a, b = rng.randint(0, 9), rng.randint(1, 9)
        return f"({a}/{b})", lambda p: Fraction(a, b)
    if kind in ("neg", "pos"):
        text, fn = _random_expression(rng, depth - 1, nvars)
        if kind == "neg":
            return f"-({text})", lambda p: -fn(p)
        return f"+({text})", fn
    if kind == "pow":
        text, fn = _random_expression(rng, depth - 1, nvars)
        k = rng.randint(0, 3)
        return f"({text})^{k}", lambda p: fn(p) ** k
    (lt, lf), (rt, rf) = (_random_expression(rng, depth - 1, nvars) for _ in range(2))
    op = {"+": lambda a, b: a + b, "-": lambda a, b: a - b, "*": lambda a, b: a * b}[kind]
    return f"({lt}){kind}({rt})", lambda p: op(lf(p), rf(p))


def test_compiled_evaluation_matches_fraction_arithmetic():
    rng = random.Random(20150)
    seen = set()
    for _ in range(300):
        nvars = rng.randint(1, 6)
        text, direct = _random_expression(rng, rng.randint(1, 4), nvars)
        # '#' stands for an x1..xn name, a bare x for the alias
        marked = re.sub(r"x\d+", "#", text)
        seen.update(c for c in "+-*^/xyzw#" if c in marked)
        seen.update(["^0"] if "^0" in text else [])
        p = parse_polynomial(text, nvars)
        oracle = fraction_polynomial(text, nvars)
        for _ in range(5):
            point = [Fraction(rng.randint(-50, 50), rng.randint(1, 20)) for _ in range(nvars)]
            assert p.evaluate(point) == oracle(point) == direct(point), text
        # lattice points: one denominator for every coordinate, and floats
        q = rng.choice([1, 3, 7, 2 ** 52])
        point = [Fraction(rng.randint(-50 * q, 50 * q), q) for _ in range(nvars)]
        assert p.evaluate(point) == oracle(point) == direct(point), text
        floats = [rng.uniform(-5, 5) for _ in range(nvars)]
        assert p.evaluate(floats) == oracle(floats), text
    assert seen == set("+-*^/xyzw#") | {"^0"}


@pytest.mark.parametrize("text, point, value", [
    ("-x^2", [3], -9),                  # ^ binds tighter than unary minus
    ("x - y - z", [1, 2, 3], -4),       # left associative
    ("2*x^0 + y^1", [5, 7], 9),
    ("1/2*x - 3/4", [4], Fraction(5, 4)),
    ("+x*-y", [2, 3], -6),
])
def test_precedence(text, point, value):
    assert parse_polynomial(text, len(point)).evaluate(point) == value


def test_evaluate_checks_point_length():
    with pytest.raises(InputError):
        parse_polynomial("x + y", 2).evaluate([Fraction(1)])


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


def test_perturbation_is_the_gap_midpoint():
    tr = triangulate_variety(["x*y"], [(-2, 2), (-2, 2)], Fraction(1, 2))
    s = tr.stages[-1]
    # the values are multiples of 1/4, so 0 moves to the middle of (0, 1/4)
    assert min(x for x in s.excluded if x > 0) == Fraction(1, 4)
    assert s.level == Fraction(1, 8)


def test_two_constraints_curve():
    # sphere cut by a plane: a circle in the grid
    tr = triangulate_variety(["x^2 + y^2 + z^2 - 2", "z - 1/3"],
                             [(-2, 2)] * 3, Fraction(1, 2))
    s = tr.stages[-1]
    assert s.verdict.ok
    assert all(s.surface.graph.degree(v) == 2 for v in range(s.surface.graph.n))


# the benchmark's varieties, centred at a shift by multiples of 1/32
_X, _Y, _Z, _W = "(x-1/32)", "(y+3/32)", "(z-1/16)", "(w+1/32)"
_SPHERE = f"{_X}^2+{_Y}^2+{_Z}^2-2"
BENCHMARK_VARIETIES = {
    "sphere": ([_SPHERE], [(-2, 2)] * 3, Fraction(1, 2)),
    "curve": ([_SPHERE, f"{_X}+1/3*{_Y}+1/7*{_Z}-1/5"], [(-2, 2)] * 3, Fraction(1, 2)),
    "torus": ([f"({_X}^2+{_Y}^2+{_Z}^2+3)^2-16*({_X}^2+{_Y}^2)"],
              [(-4, 4), (-4, 4), (-2, 2)], Fraction(1, 2)),
    "sphere4d": ([f"{_X}^2+{_Y}^2+{_Z}^2+{_W}^2-2"], [(-2, 2)] * 4, Fraction(1)),
}


# lattice cases: rational shifted origins, steps 1/3 and 2/7, a box and step
# given as floats, zeroth powers, the deepest and the most powered expressions
# the caps allow, and polynomials that are 0 at lattice points, so the level
# is perturbed; the last entry says whether the first stage must be
LATTICE_VARIETIES = {
    "shifted-origin": (["(x-1/5)^2+(y+1/7)^2-1"],
                       [(Fraction(-7, 3), Fraction(5, 3)), (Fraction(-3, 2), Fraction(3, 2))],
                       Fraction(1, 3), False),
    "step-1/3": (["x^2+y^2+z^2-2"], [(Fraction(-5, 3), Fraction(5, 3))] * 3, Fraction(1, 3), True),
    "step-2/7": (["x^2+2*y^2-z-1/2"], [(Fraction(-8, 7), Fraction(8, 7))] * 3, Fraction(2, 7),
                 False),
    "floats": (["x^2+y^2-1/2"], [(-0.7, Fraction(-0.7) + 14 * Fraction(0.1)),
                                 (0.3, Fraction(0.3) + 10 * Fraction(0.1))], 0.1, False),
    "zeroth-powers": (["(x^2+y^2)*x^0-3/2*(y-x)^0+(x*y)^0*0"], [(-2, 2)] * 2, Fraction(1, 2),
                      False),
    "nodes-at-cap": (["-" * (MAX_NODES - 1) + "x"], [(-2, 2)], Fraction(1, 2), True),
    "nested-at-cap": (["(x^8)^8"], [(-2, 2)], Fraction(1, 2), True),
    "zero-on-lattice-lines": (["(x-1/3)*(y+2/3)"], [(Fraction(-2, 3), Fraction(4, 3))] * 2,
                              Fraction(1, 3), True),
}


@pytest.mark.parametrize("name", list(BENCHMARK_VARIETIES) + list(LATTICE_VARIETIES))
def test_varieties_match_the_edge_list_grid(name):
    polys, box, step, *perturbed = (BENCHMARK_VARIETIES | LATTICE_VARIETIES)[name]
    trace = triangulate_variety(polys, box, step)
    d = len(box)
    step = Fraction(step)
    origin = [Fraction(lo) for lo, _ in box]
    cells = [int((Fraction(hi) - Fraction(lo)) / step) for lo, hi in box]
    grid = kuhn_grid_by_edges(d, cells, False, origin, step)
    points = [tuple(origin[j] + idx[j] * step for j in range(d)) for idx in grid.labels]
    values = [[fraction_polynomial(p, d)(pt) for pt in points] for p in polys]
    old = sard_pipeline(grid, values, [0] * len(polys), perturb=True)
    assert same_graph(grid, trace.graph)
    assert trace.dimension == old.dimension == d
    assert len(trace.stages) == len(old.stages)
    if perturbed:
        assert trace.stages[0].perturbed == perturbed[0]
    for new_stage, old_stage in zip(trace.stages, old.stages):
        assert new_stage.input_values == old_stage.input_values
        assert new_stage.excluded == old_stage.excluded
        assert (new_stage.level, new_stage.perturbed) == (old_stage.level, old_stage.perturbed)
        assert new_stage.surface.origin == old_stage.surface.origin
        assert new_stage.support == old_stage.support
        assert same_graph(old_stage.surface.graph, new_stage.surface.graph)
        assert new_stage.verdict == old_stage.verdict


# every case above whose first level is perturbed, and the varieties of the
# CLI goldens, which all hit their level 0 at lattice points; nested-at-cap
# has the value 2^-64 itself, so its test follows
PERTURBED_VARIETIES = {name: case[:3] for name, case in LATTICE_VARIETIES.items()
                       if case[3] and name != "nested-at-cap"}
PERTURBED_VARIETIES.update({
    "cross": (["x*y"], [(-2, 2)] * 2, Fraction(1, 2)),
    "circle": (["x^2+y^2-2"], [(-2, 2)] * 2, Fraction(1, 2)),
    "sphere-on-lattice": (["x^2+y^2+z^2-2"], [(-2, 2)] * 3, Fraction(1, 2)),
    "curve-on-lattice": (["x^2+y^2+z^2-2", "x+1/3*y+1/7*z-1/5"], [(-2, 2)] * 3,
                         Fraction(1, 2)),
})


@pytest.mark.parametrize("name", PERTURBED_VARIETIES)
def test_perturbed_stages_cut_as_a_tiny_step_does(name):
    polys, box, step = PERTURBED_VARIETIES[name]
    trace = triangulate_variety(polys, box, step)
    assert trace.stages[0].perturbed
    assert_cut_as_by_a_tiny_step(trace, [0] * len(polys))


def test_a_value_within_2_to_the_minus_64_keeps_its_side():
    # (x^8)^8 is 2^-64 at x = +-1/2 (vertices 3 and 5; x = 0 is vertex 4).
    # Stepping 0 up by 2^-64 until it left the value set gave 2^-63, which
    # put x = +-1/2 below the level and cut edges (2, 3) and (5, 6); the
    # middle of the gap (0, 2^-64) leaves them above, on the side of their
    # value, and cuts the two edges at x = 0.
    polys, box, step, _ = LATTICE_VARIETIES["nested-at-cap"]
    s = triangulate_variety(polys, box, step).stages[0]
    assert min(x for x in s.excluded if x > 0) == Fraction(1, 2 ** 64)
    assert s.level == Fraction(1, 2 ** 65)
    assert s.surface.origin == ((3, 4), (4, 5))


def test_step_must_divide_box():
    with pytest.raises(InputError):
        triangulate_variety(["x^2 - 1"], [(0, 1)], Fraction(3, 7))


def test_domain_validation():
    with pytest.raises(InputError):
        triangulate_variety(["x^2 - 1"], [(1, -1)], Fraction(1, 2))
    with pytest.raises(InputError):
        triangulate_variety(["x + y"], [(0, 1)], Fraction(1, 2))  # nvars mismatch


class _Built(Exception):
    pass


@pytest.fixture
def grids(monkeypatch):
    """The axis sizes each kuhn_grid call asked for; nothing is built."""
    calls = []

    def record(d, cells, **kwargs):
        calls.append(tuple(cells))
        raise _Built

    monkeypatch.setattr(variety, "kuhn_grid", record)
    return calls


@pytest.mark.parametrize("domain, step, periodic, cap", [
    ([(0, 99), (0, 999)], 1, False, None),  # 100 x 1000 lattice points
    ([(0, 99), (0, 1000)], 1, False, "vertices"),
    ([(0, Fraction(99, 2)), (0, Fraction(999, 2))], Fraction(1, 2), False, None),
    ([(-1000, 1000), (-1000, 1000)], Fraction(1, 1000), False, "vertices"),
    ([(0, 15)] * 4, 1, False, None),  # 16^4 points, each starting at most 15 edges
    ([(0, 16)] * 4, 1, False, "edges"),
    ([(0, 10)] * 4, 1, True, None),
    ([(0, 4)] * 8, 1, True, "edges"),  # 4^8 points, each starting at most 255 edges
])
def test_grid_is_capped_before_it_is_built(grids, domain, step, periodic, cap):
    if cap is None:
        with pytest.raises(_Built):
            triangulate_variety(["x - 1/3"], domain, step, periodic)
        assert len(grids) == 1
    else:
        limit = MAX_VERTICES if cap == "vertices" else MAX_EDGES
        with pytest.raises(InputError, match=f"variety grid: over the cap of {limit} {cap}"):
            triangulate_variety(["x - 1/3"], domain, step, periodic)
        assert grids == []


LONG_SUM = "+".join(["x"] * 1000)  # deeper than the interpreter's recursion limit
OVER = f"exponent {MAX_EXPONENT + 1} is over the cap of {MAX_EXPONENT}"


@pytest.mark.parametrize("text, value, reason", [
    (f"x^{MAX_EXPONENT}", 2 ** MAX_EXPONENT, None),
    (f"x^{MAX_EXPONENT + 1}", None, OVER),
    ("x^100000000", None, f"exponent 100000000 is over the cap of {MAX_EXPONENT}"),
    (f"2^{MAX_EXPONENT + 1}", None, OVER),
    ("(x^8)^8", 2 ** 64, None),  # nested exponents multiply
    ("(x^8)^9", None, f"exponent 72 is over the cap of {MAX_EXPONENT}"),
    (f"(x^{MAX_EXPONENT + 1})^0", None, OVER),  # the base is evaluated before its zeroth power
    ("-" * (MAX_NODES - 1) + "x", -2, None),  # as deep as the cap allows
    ("-" * MAX_NODES + "x", None, f"{MAX_NODES + 1} nodes, over the cap of {MAX_NODES}"),
    ("-" + "+".join(["x"] * (MAX_NODES // 2)), MAX_NODES - 4, None),  # -2 + 127 * 2
    ("+".join(["(x)"] * (MAX_NODES // 2 + 1)), None,  # parentheses make no node
     f"{MAX_NODES + 1} nodes, over the cap of {MAX_NODES}"),
    (LONG_SUM, None, f"1999 nodes, over the cap of {MAX_NODES}"),
], ids=["exponent-at-cap", "exponent-over-cap", "exponent-huge", "constant-power-over-cap",
        "nested-at-cap", "nested-over-cap", "zeroth-power-of-over-cap", "nodes-at-cap",
        "nodes-over-cap", "sum-at-cap", "sum-over-cap", "sum-past-recursion-limit"])
def test_polynomial_caps(text, value, reason):
    if reason is None:
        assert parse_polynomial(text, 1).evaluate([Fraction(2)]) == value
        return
    with pytest.raises(UnparsablePolynomial) as e:
        parse_polynomial(text, 1)
    assert str(e.value).endswith(reason)
