"""Exact triangulation of polynomial zero sets on staircase grids.

Polynomials are evaluated with exact rational arithmetic at the lattice
points of a Kuhn grid, then fed through the iterated level-surface
pipeline at level 0.  When 0 happens to be a value of some stage function
the level is nudged by multiples of a tiny rational, so the construction
stays exact while following the generic-level argument.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .catalog import kuhn_grid
from .errors import InputError, UnparsablePolynomial
from .rational import as_fraction
from .sard import SardTrace, sard_pipeline

_ALIASES = ("x", "y", "z", "w")


def _variable_map(nvars: int) -> dict[str, int]:
    names = {f"x{i + 1}": i for i in range(nvars)}
    for i, alias in enumerate(_ALIASES[:nvars]):
        names[alias] = i
    return names


@dataclass(frozen=True)
class Polynomial:
    text: str
    nvars: int
    _tree: ast.expr

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        if len(point) != self.nvars:
            raise InputError(f"expected {self.nvars} coordinates, got {len(point)}")
        names = _variable_map(self.nvars)

        def ev(node):
            if isinstance(node, ast.Constant):
                return Fraction(node.value)
            if isinstance(node, ast.Name):
                return as_fraction(point[names[node.id]])
            if isinstance(node, ast.UnaryOp):
                v = ev(node.operand)
                return -v if isinstance(node.op, ast.USub) else v
            left = ev(node.left)
            if isinstance(node.op, ast.Add):
                return left + ev(node.right)
            if isinstance(node.op, ast.Sub):
                return left - ev(node.right)
            if isinstance(node.op, ast.Mult):
                return left * ev(node.right)
            if isinstance(node.op, ast.Div):
                return left / ev(node.right)
            return left ** node.right.value  # Pow, validated at parse time

        return ev(self._tree)


def _validate(node: ast.expr, names: dict[str, int], text: str) -> None:
    def fail(reason: str):
        raise UnparsablePolynomial(f"{text!r}: {reason}")

    if isinstance(node, ast.Constant):
        if not isinstance(node.value, int) or isinstance(node.value, bool):
            fail(f"literal {node.value!r} is not an integer")
        return
    if isinstance(node, ast.Name):
        if node.id not in names:
            fail(f"unknown variable {node.id!r}")
        return
    if isinstance(node, ast.UnaryOp):
        if not isinstance(node.op, (ast.UAdd, ast.USub)):
            fail("only unary plus and minus are allowed")
        _validate(node.operand, names, text)
        return
    if not isinstance(node, ast.BinOp):
        fail(f"unsupported syntax {type(node).__name__}")
    if isinstance(node.op, (ast.Add, ast.Sub, ast.Mult)):
        _validate(node.left, names, text)
        _validate(node.right, names, text)
        return
    if isinstance(node.op, ast.Div):
        # division appears only in rational literals p/q
        if not (isinstance(node.left, ast.Constant) and isinstance(node.right, ast.Constant)):
            fail("division is allowed only between integer literals")
        _validate(node.left, names, text)
        _validate(node.right, names, text)
        if node.right.value == 0:
            fail("division by zero")
        return
    if isinstance(node.op, ast.Pow):
        _validate(node.left, names, text)
        if not (isinstance(node.right, ast.Constant) and isinstance(node.right.value, int)
                and not isinstance(node.right.value, bool) and node.right.value >= 0):
            fail("exponents must be nonnegative integer literals")
        return
    fail(f"operator {type(node.op).__name__} is not allowed")


def parse_polynomial(text: str, nvars: int) -> Polynomial:
    """Parse +, -, *, ^ (nonnegative integer powers) over rational literals.

    Variables are x1..xn with x, y, z, w as aliases for the first four.
    """
    if nvars < 1:
        raise InputError("need at least one variable")
    source = text.replace("^", "**")
    try:
        tree = ast.parse(source, mode="eval").body
    except SyntaxError as e:
        raise UnparsablePolynomial(f"{text!r}: {e.msg}") from None
    _validate(tree, _variable_map(nvars), text)
    return Polynomial(text, nvars, tree)


def triangulate_variety(polys: Sequence[Union[str, Polynomial]],
                        domain: Sequence[Sequence], step,
                        periodic: bool = False, *,
                        budget: Optional[int] = None) -> SardTrace:
    """Triangulate the common zero set of polynomials over a box.

    domain is a list of (lo, hi) pairs, one per variable; step must divide
    every edge exactly.  Each level surface inherits interpolated float
    coordinates from the grid, so the trace is mesh-ready.
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

    grid = kuhn_grid(d, cells, periodic=periodic,
                     origin=[lo for lo, _ in box], step=step)
    points = [tuple(box[j][0] + idx[j] * step for j in range(d))
              for idx in (grid.label_of(v) for v in range(grid.n))]
    values = [[p.evaluate(pt) for pt in points] for p in parsed]

    return sard_pipeline(grid, values, [Fraction(0)] * len(parsed), budget=budget,
                         perturb=True)
