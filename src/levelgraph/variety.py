"""Exact triangulation of polynomial zero sets on staircase grids.

Polynomials are evaluated with exact rational arithmetic at the lattice
points of a Kuhn grid, then fed through the iterated level-surface
pipeline at level 0.  When 0 happens to be a value of some stage function
the level is nudged by multiples of a tiny rational, so the construction
stays exact while following the generic-level argument.
"""

from __future__ import annotations

import ast
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Optional, Sequence, Union

from .catalog import check_kuhn_size, kuhn_grid
from .errors import InputError, UnparsablePolynomial
from .rational import as_fraction
from .sard import SardTrace, sard_pipeline

# the binary operators allowed between arbitrary subexpressions
_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul}

# Caps on a polynomial, checked at parse time.  The largest polynomial a test
# or the benchmark uses has 45 nodes (the benchmark's shifted torus) and an
# exponent of 9 (a cube of a cube, in the random expressions of the tests).
# An exponent counts times the exponents of the powers around it, so
# (x^8)^8 has exponent 64; with both caps the degree is at most
# MAX_EXPONENT * MAX_NODES, and the parse, the compile and every evaluation
# recurse at most MAX_NODES deep.
MAX_EXPONENT = 64
MAX_NODES = 256

# one expression node per name, literal or operator sign; parentheses make none
_NODE_TOKEN = re.compile(r"\w+|[^\w\s()]")


@dataclass(frozen=True)
class Polynomial:
    """A parsed polynomial; evaluate runs the function compiled at parse time."""

    text: str
    nvars: int
    _fn: Callable[[tuple[Fraction, ...]], Fraction]

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        if len(point) != self.nvars:
            raise InputError(f"expected {self.nvars} coordinates, got {len(point)}")
        return self._fn(tuple(as_fraction(c) for c in point))


def _compile(node: ast.expr, names: dict[str, int], text: str, power: int = 1):
    """Check node against the grammar and return it as a function of a point.

    power is the product of the exponents of the powers around node.
    """
    def fail(reason: str):
        raise UnparsablePolynomial(f"{text!r}: {reason}")

    if isinstance(node, ast.Constant):
        if not isinstance(node.value, int) or isinstance(node.value, bool):
            fail(f"literal {node.value!r} is not an integer")
        value = Fraction(node.value)
        return lambda p: value
    if isinstance(node, ast.Name):
        if node.id not in names:
            fail(f"unknown variable {node.id!r}")
        return operator.itemgetter(names[node.id])
    if isinstance(node, ast.UnaryOp):
        if not isinstance(node.op, (ast.UAdd, ast.USub)):
            fail("only unary plus and minus are allowed")
        operand = _compile(node.operand, names, text, power)
        return operand if isinstance(node.op, ast.UAdd) else lambda p: -operand(p)
    if not isinstance(node, ast.BinOp):
        fail(f"unsupported syntax {type(node).__name__}")
    op = _BINARY.get(type(node.op))
    if op is not None:
        left = _compile(node.left, names, text, power)
        right = _compile(node.right, names, text, power)
        return lambda p: op(left(p), right(p))
    if isinstance(node.op, ast.Div):
        # division appears only in rational literals p/q, folded to a constant
        if not (isinstance(node.left, ast.Constant) and isinstance(node.right, ast.Constant)):
            fail("division is allowed only between integer literals")
        _compile(node.left, names, text)
        _compile(node.right, names, text)
        if node.right.value == 0:
            fail("division by zero")
        value = Fraction(node.left.value, node.right.value)
        return lambda p: value
    if isinstance(node.op, ast.Pow):
        exponent = node.right.value if isinstance(node.right, ast.Constant) else None
        if not (isinstance(exponent, int) and not isinstance(exponent, bool) and exponent >= 0):
            fail("exponents must be nonnegative integer literals")
        power *= max(exponent, 1)  # x^0 still evaluates x
        if power > MAX_EXPONENT:
            fail(f"exponent {power} is over the cap of {MAX_EXPONENT}")
        base = _compile(node.left, names, text, power)
        return lambda p: base(p) ** exponent
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
    return Polynomial(text, nvars, _compile(tree, names, text))


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
    # the grid numbers its lattice points in product order, so one table of
    # exact values per axis gives every point
    axes = [[lo + i * step for i in range(c if periodic else c + 1)]
            for (lo, _), c in zip(box, cells)]
    points = list(product(*axes))
    values = [[p.evaluate(pt) for pt in points] for p in parsed]

    return sard_pipeline(grid, values, [Fraction(0)] * len(parsed), budget=budget,
                         perturb=True)
