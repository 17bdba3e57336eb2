"""Exact triangulation of polynomial zero sets on staircase grids.

Polynomials are evaluated with exact rational arithmetic at the lattice
points of a Kuhn grid, then fed through the iterated level-surface
pipeline at level 0.  When 0 happens to be a value of some stage function
the level is nudged by multiples of a tiny rational, so the construction
stays exact while following the generic-level argument.

Every lattice coordinate is X[i]/q over one common denominator q, so a
polynomial is compiled into an integer kernel: bound to q, it maps the
integer numerators X to value * q**degree * C, where degree is the
syntactic degree and C a multiple of the literal denominators.  Sums scale
each side by a fixed integer, products multiply and powers power, so no
intermediate is a Fraction; each value is one Fraction(kernel(X), q**degree
* C), normalised once.  Polynomial.evaluate binds q to the lcm of the
point's denominators, and triangulate_variety binds it once per grid.
"""

from __future__ import annotations

import ast
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm
from typing import Callable, Optional, Sequence, Union

from .catalog import check_kuhn_size, kuhn_grid
from .errors import InputError, UnparsablePolynomial
from .rational import as_fraction
from .sard import SardTrace, sard_pipeline

# Caps on a polynomial, checked at parse time.  The largest polynomial a test
# or the benchmark uses has 45 nodes (the benchmark's shifted torus) and an
# exponent of 9 (a cube of a cube, in the random expressions of the tests).
# An exponent counts times the exponents of the powers around it, so
# (x^8)^8 has exponent 64; with both caps the degree is at most
# MAX_EXPONENT * MAX_NODES, and the parse, the compile, the binding of a
# kernel and every evaluation recurse at most MAX_NODES deep.
MAX_EXPONENT = 64
MAX_NODES = 256

# one expression node per name, literal or operator sign; parentheses make none
_NODE_TOKEN = re.compile(r"\w+|[^\w\s()]")


@dataclass(frozen=True)
class Polynomial:
    """A parsed polynomial; its integer kernel is compiled at parse time.

    A point with coordinates X[i]/q, over one common denominator q, has the
    value Fraction(fn(X), denominator) for (fn, denominator) = _kernel(q).
    """

    text: str
    nvars: int
    _degree: int
    _scale: int
    _bind: Callable[[int], Union[int, Callable[[tuple[int, ...]], int]]]

    def _kernel(self, q: int) -> tuple[Callable[[tuple[int, ...]], int], int]:
        """The kernel bound to the denominator q, and what it divides by."""
        fn = self._bind(q)
        if not callable(fn):
            value = fn
            fn = lambda X: value
        return fn, q ** self._degree * self._scale

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        if len(point) != self.nvars:
            raise InputError(f"expected {self.nvars} coordinates, got {len(point)}")
        point = [as_fraction(c) for c in point]
        q = lcm(*(c.denominator for c in point))
        fn, denominator = self._kernel(q)
        return Fraction(fn(tuple(c.numerator * (q // c.denominator) for c in point)),
                        denominator)


def _sum(left, right, sl: int, sr: int):
    """X -> left(X)*sl + right(X)*sr, where each side is a kernel or an int."""
    if not callable(left):
        left, right, sl, sr = right, left, sr, sl
    if not callable(right):
        k = right * sr
        if not callable(left):
            return left * sl + k
        if sl == 1:
            return lambda X: left(X) + k
        return lambda X: left(X) * sl + k
    if sl == 1:
        if sr == 1:
            return lambda X: left(X) + right(X)
        if sr == -1:
            return lambda X: left(X) - right(X)
        return lambda X: left(X) + right(X) * sr
    return lambda X: left(X) * sl + right(X) * sr


def _product(left, right):
    """X -> left(X) * right(X), where each side is a kernel or an int."""
    if not callable(left):
        left, right = right, left
    if not callable(right):
        if not callable(left):
            return left * right
        if right == 1:
            return left
        return lambda X: left(X) * right
    return lambda X: left(X) * right(X)


def _negative(f):
    """X -> -f(X), where f is a kernel or an int."""
    return (lambda X: -f(X)) if callable(f) else -f


def _power(f, exponent: int):
    """X -> f(X) ** exponent, where f is a kernel or an int."""
    return (lambda X: f(X) ** exponent) if callable(f) else f ** exponent


def _compile(node: ast.expr, names: dict[str, int], text: str, power: int = 1):
    """Check node against the grammar and return (degree, scale, bind).

    degree is the syntactic degree of node, and scale C a multiple of the
    denominators of its literals.  bind(q) gives the node's kernel for
    points X/q: an int function fn with fn(X) == value * q**degree * C, or
    that int itself when node has no variable.  power is the product of
    the exponents of the powers around node.
    """
    def fail(reason: str):
        raise UnparsablePolynomial(f"{text!r}: {reason}")

    if isinstance(node, ast.Constant):
        if not isinstance(node.value, int) or isinstance(node.value, bool):
            fail(f"literal {node.value!r} is not an integer")
        value = node.value
        return 0, 1, lambda q: value
    if isinstance(node, ast.Name):
        if node.id not in names:
            fail(f"unknown variable {node.id!r}")
        get = operator.itemgetter(names[node.id])
        return 1, 1, lambda q: get
    if isinstance(node, ast.UnaryOp):
        if not isinstance(node.op, (ast.UAdd, ast.USub)):
            fail("only unary plus and minus are allowed")
        degree, scale, bind = _compile(node.operand, names, text, power)
        if isinstance(node.op, ast.UAdd):
            return degree, scale, bind
        return degree, scale, lambda q: _negative(bind(q))
    if not isinstance(node, ast.BinOp):
        fail(f"unsupported syntax {type(node).__name__}")
    if isinstance(node.op, (ast.Add, ast.Sub, ast.Mult)):
        dl, cl, bl = _compile(node.left, names, text, power)
        dr, cr, br = _compile(node.right, names, text, power)
        if isinstance(node.op, ast.Mult):
            return dl + dr, cl * cr, lambda q: _product(bl(q), br(q))
        # both sides brought to the larger degree and the common scale
        degree, scale = max(dl, dr), lcm(cl, cr)
        sign = 1 if isinstance(node.op, ast.Add) else -1
        return degree, scale, lambda q: _sum(bl(q), br(q), q ** (degree - dl) * (scale // cl),
                                             sign * q ** (degree - dr) * (scale // cr))
    if isinstance(node.op, ast.Div):
        # division appears only in rational literals p/q, folded to a constant
        if not (isinstance(node.left, ast.Constant) and isinstance(node.right, ast.Constant)):
            fail("division is allowed only between integer literals")
        _compile(node.left, names, text)
        _compile(node.right, names, text)
        if node.right.value == 0:
            fail("division by zero")
        value = Fraction(node.left.value, node.right.value)
        return 0, value.denominator, lambda q: value.numerator
    if isinstance(node.op, ast.Pow):
        exponent = node.right.value if isinstance(node.right, ast.Constant) else None
        if not (isinstance(exponent, int) and not isinstance(exponent, bool) and exponent >= 0):
            fail("exponents must be nonnegative integer literals")
        power *= max(exponent, 1)  # x^0 is checked as x
        if power > MAX_EXPONENT:
            fail(f"exponent {power} is over the cap of {MAX_EXPONENT}")
        degree, scale, bind = _compile(node.left, names, text, power)
        if exponent == 0:
            return 0, 1, lambda q: 1
        if exponent == 1:
            return degree, scale, bind
        return degree * exponent, scale ** exponent, lambda q: _power(bind(q), exponent)
    fail(f"operator {type(node.op).__name__} is not allowed")


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
    return Polynomial(text, nvars, *_compile(tree, names, text))


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
    # denominator q of every coordinate, one range of numerators per axis
    # gives every point
    q = lcm(step.denominator, *(lo.denominator for lo, _ in box))
    stride = int(step * q)
    axes = [range(int(lo * q), int(lo * q) + (c if periodic else c + 1) * stride, stride)
            for (lo, _), c in zip(box, cells)]
    values = []
    for p in parsed:
        fn, denominator = p._kernel(q)
        values.append([Fraction(x, denominator) for x in map(fn, product(*axes))])

    return sard_pipeline(grid, values, [Fraction(0)] * len(parsed), budget=budget,
                         perturb=True)
