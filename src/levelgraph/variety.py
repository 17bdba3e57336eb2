"""Exact triangulation of polynomial zero sets on staircase grids.

Polynomials are evaluated with exact rational arithmetic at the lattice
points of a Kuhn grid, then fed through the iterated level-surface
pipeline at level 0.  When 0 happens to be a value of some stage function,
sard_pipeline(perturb=True) moves the level to the middle of the gap up to
the least value above it (up by 1 when none is above), so the construction
stays exact while following the generic-level argument.

Every lattice coordinate is X[i]/q over one common denominator q, so a
polynomial is compiled once, at parse time, into one integer expression
kernel(X, q) == value * q**degree * C, where degree is the syntactic degree
and C a multiple of the literal denominators: no intermediate is a
Fraction, and each value is one Fraction(kernel(X, q), q**degree * C).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import product, repeat
from math import lcm
from typing import Callable, Optional, Sequence, Union

from .catalog import check_kuhn_size, kuhn_grid
from .errors import InputError, UnparsablePolynomial
from .rational import as_fraction
from .sard import SardTrace, sard_pipeline

# Caps on a polynomial, checked at parse time.  The largest polynomial a test
# or the benchmark uses has 45 nodes (the benchmark's shifted torus) and an
# exponent of 9 (a cube of a cube, in the random expressions of the tests).
# An exponent counts times those of the powers around it, so (x^8)^8 has
# exponent 64; the degree is at most MAX_EXPONENT * MAX_NODES, the parse and
# the compile recurse about MAX_NODES deep, and a kernel does not recurse.
MAX_EXPONENT = 64
MAX_NODES = 256

# one expression node per name, literal or operator sign; parentheses make none
_NODE_TOKEN = re.compile(r"\w+|[^\w\s()]")


@dataclass(frozen=True)
class Polynomial:
    """A parsed polynomial; its integer kernel is compiled at parse time.

    A point with coordinates X[i]/q, over one common denominator q, has the
    value Fraction(_kernel(X, q), q**_degree * _scale).
    """

    text: str
    nvars: int
    _degree: int
    _scale: int
    _kernel: Callable[[tuple[int, ...], int], int]

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        if len(point) != self.nvars:
            raise InputError(f"expected {self.nvars} coordinates, got {len(point)}")
        point = [as_fraction(c) for c in point]
        q = lcm(*(c.denominator for c in point))
        X = tuple(c.numerator * (q // c.denominator) for c in point)
        return Fraction(self._kernel(X, q), q ** self._degree * self._scale)


def _scaled(e: ast.expr, k: int, m: int) -> ast.expr:
    """The expression e * q**k * m, leaving out any factor of 1."""
    if k:
        q = ast.Name("q", ast.Load())
        e = ast.BinOp(e, ast.Mult(), q if k == 1 else ast.BinOp(q, ast.Pow(), ast.Constant(k)))
    return e if m == 1 else ast.BinOp(e, ast.Mult(), ast.Constant(m))


def _compile(node: ast.expr, names: dict[str, int], text: str, power: int = 1):
    """Check node against the grammar and return (degree, scale, expr).

    degree is the syntactic degree of node, scale C a multiple of the
    denominators of its literals, and expr a new expression of int literals,
    X[i], q, + - * ** and unary + - whose value at X/q is value * q**degree
    * C.  power is the product of the exponents of the powers around node.
    """
    def fail(reason: str):
        raise UnparsablePolynomial(f"{text!r}: {reason}")

    if isinstance(node, ast.Constant):
        if not isinstance(node.value, int) or isinstance(node.value, bool):
            fail(f"literal {node.value!r} is not an integer")
        return 0, 1, ast.Constant(node.value)
    if isinstance(node, ast.Name):
        if node.id not in names:
            fail(f"unknown variable {node.id!r}")
        return 1, 1, ast.Subscript(ast.Name("X", ast.Load()), ast.Constant(names[node.id]),
                                   ast.Load())
    if isinstance(node, ast.UnaryOp):
        if not isinstance(node.op, (ast.UAdd, ast.USub)):
            fail("only unary plus and minus are allowed")
        degree, scale, expr = _compile(node.operand, names, text, power)
        expr = ast.UnaryOp(node.op, expr)
    elif not isinstance(node, ast.BinOp):
        fail(f"unsupported syntax {type(node).__name__}")
    elif isinstance(node.op, (ast.Add, ast.Sub, ast.Mult)):
        dl, cl, el = _compile(node.left, names, text, power)
        dr, cr, er = _compile(node.right, names, text, power)
        if isinstance(node.op, ast.Mult):
            degree, scale, expr = dl + dr, cl * cr, ast.BinOp(el, ast.Mult(), er)
        else:  # both sides brought to the larger degree and the common scale
            degree, scale = max(dl, dr), lcm(cl, cr)
            expr = ast.BinOp(_scaled(el, degree - dl, scale // cl), node.op,
                             _scaled(er, degree - dr, scale // cr))
    elif isinstance(node.op, ast.Div):
        # division appears only in rational literals p/q, folded to a constant
        if not (isinstance(node.left, ast.Constant) and isinstance(node.right, ast.Constant)):
            fail("division is allowed only between integer literals")
        _compile(node.left, names, text)
        _compile(node.right, names, text)
        if node.right.value == 0:
            fail("division by zero")
        value = Fraction(node.left.value, node.right.value)
        return 0, value.denominator, ast.Constant(value.numerator)
    elif isinstance(node.op, ast.Pow):
        exponent = node.right.value if isinstance(node.right, ast.Constant) else None
        if not (isinstance(exponent, int) and not isinstance(exponent, bool) and exponent >= 0):
            fail("exponents must be nonnegative integer literals")
        power *= max(exponent, 1)  # x^0 is checked as x
        if power > MAX_EXPONENT:
            fail(f"exponent {power} is over the cap of {MAX_EXPONENT}")
        degree, scale, expr = _compile(node.left, names, text, power)
        if exponent == 0:
            return 0, 1, ast.Constant(1)
        if exponent > 1:
            degree, scale = degree * exponent, scale ** exponent
            expr = ast.BinOp(expr, ast.Pow(), ast.Constant(exponent))
    else:
        fail(f"operator {type(node.op).__name__} is not allowed")
    if degree == 0 and not isinstance(expr, ast.Constant):
        # no variable: Python's compiler folds only small ints, so fold here
        expr = ast.Constant(_kernel(expr)((), 1))
    return degree, scale, expr


def _kernel(expr: ast.expr) -> Callable[[tuple[int, ...], int], int]:
    """lambda X, q: expr, compiled from the tree: a literal may be too long for str()."""
    tree = ast.parse("lambda X, q: 0", mode="eval")
    tree.body.body = expr
    return eval(compile(ast.fix_missing_locations(tree), "<polynomial>", "eval"),
                {"__builtins__": {}})


def parse_polynomial(text: str, nvars: int) -> Polynomial:
    """Parse +, -, *, ^ (nonnegative integer powers) over rational literals.

    Variables are x1..xn with x, y, z, w as aliases for the first four.
    The expression is checked and compiled once, here.  It may have at most
    MAX_NODES names, literals and operator signs (counted on the text,
    before it is parsed), and no exponent, times those around it, above
    MAX_EXPONENT.
    """
    if nvars < 1:
        raise InputError("need at least one variable")
    nodes = len(_NODE_TOKEN.findall(text))
    if nodes > MAX_NODES:
        raise UnparsablePolynomial(f"{text[:40]!r}...: {nodes} nodes, over the cap of {MAX_NODES}")
    source = text.replace("^", "**")
    try:
        tree = ast.parse(source, mode="eval").body
    except SyntaxError as e:
        raise UnparsablePolynomial(f"{text!r}: {e.msg}") from None
    names = {f"x{i + 1}": i for i in range(nvars)}
    names.update(zip("xyzw", range(nvars)))
    degree, scale, expr = _compile(tree, names, text)
    return Polynomial(text, nvars, degree, scale, _kernel(expr))


def triangulate_variety(polys: Sequence[Union[str, Polynomial]],
                        domain: Sequence[Sequence], step,
                        periodic: bool = False, *,
                        budget: Optional[int] = None) -> SardTrace:
    """Triangulate the common zero set of polynomials over a box.

    domain is a list of (lo, hi) pairs, one per variable; step must divide
    every edge exactly.  The grid is capped as catalog.build caps a kuhn
    spec, before it is built.  Each level surface inherits interpolated
    float coordinates from the grid, so the trace is mesh-ready.
    """
    d = len(domain)
    if d < 1:
        raise InputError("domain must have at least one axis")
    step = as_fraction(step)
    if step <= 0:
        raise InputError("step must be positive")
    box = [(as_fraction(lo), as_fraction(hi)) for lo, hi in domain]
    cells = []
    for lo, hi in box:
        if hi <= lo:
            raise InputError(f"empty axis [{lo}, {hi}]")
        count = (hi - lo) / step
        if count.denominator != 1:
            raise InputError(f"step {step} does not divide edge [{lo}, {hi}]")
        cells.append(int(count))
    parsed = [p if isinstance(p, Polynomial) else parse_polynomial(p, d) for p in polys]
    if any(p.nvars != d for p in parsed):
        raise InputError("polynomial variable count does not match domain")

    check_kuhn_size("variety grid", cells, periodic)
    grid = kuhn_grid(d, cells, periodic=periodic,
                     origin=[lo for lo, _ in box], step=step)
    # the grid numbers its lattice points in product order; over the common
    # denominator q, one range of numerators per axis gives every point
    q = lcm(step.denominator, *(lo.denominator for lo, _ in box))
    stride = int(step * q)
    axes = [range(int(lo * q), int(lo * q) + (c if periodic else c + 1) * stride, stride)
            for (lo, _), c in zip(box, cells)]
    values = []
    for p in parsed:
        denominator = q ** p._degree * p._scale
        values.append([Fraction(x, denominator)
                        for x in map(p._kernel, product(*axes), repeat(q))])

    return sard_pipeline(grid, values, [Fraction(0)] * len(parsed), budget=budget,
                         perturb=True)
