"""Coercion helpers for exact rational vertex data.

Combinatorial pipelines run on fractions.Fraction throughout.  Floats are
accepted at the boundary and converted by their exact binary expansion, so
the conversion itself never introduces rounding.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

from .errors import InputError


def as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise InputError("boolean is not a rational value")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise InputError(f"{x!r} is not a rational value")
        return Fraction(x)  # exact binary expansion
    if isinstance(x, str):
        try:
            return Fraction(x.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"cannot parse rational {x!r}") from exc
    raise InputError(f"cannot interpret {type(x).__name__} as a rational")


def as_fraction_vector(values: Sequence, n: Optional[int] = None) -> tuple[Fraction, ...]:
    out = tuple(as_fraction(x) for x in values)
    if n is not None and len(out) != n:
        raise InputError(f"expected {n} values, got {len(out)}")
    return out
