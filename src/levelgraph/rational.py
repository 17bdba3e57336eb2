"""Coercion helpers for exact rational vertex data.

Combinatorial pipelines run on fractions.Fraction throughout.  Floats are
accepted at the boundary and converted by their exact binary expansion, so
the conversion itself never introduces rounding.  Strings are parsed by
Fraction after a check that a decimal exponent stays within MAX_EXPONENT
in magnitude: Fraction("1e10000000") would spend seconds building 10**N.
fraction_text writes the "p/q" form that reports and documents hold.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Optional, Sequence

from .errors import InputError

MAX_EXPONENT = 4300  # |N| in "...eN", the same as Python's default int-digit limit
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)$")


def _parse(text: str) -> Fraction:
    exponent = _EXPONENT.search(text)
    if exponent:
        digits = exponent.group(1).replace("_", "").lstrip("0")
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits or 0) > MAX_EXPONENT:
            raise InputError(f"exponent of {text!r} is over {MAX_EXPONENT} in magnitude")
    return Fraction(text)


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
            return _parse(x.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"cannot parse rational {x!r}") from exc
    raise InputError(f"cannot interpret {type(x).__name__} as a rational")


def fraction_text(x: Fraction) -> str:
    """x as "p/q".  A part longer than the interpreter's limit on int-to-text
    conversion (4300 digits by default) is an InputError; the limit stays,
    as it guards against conversions that take quadratic time."""
    try:
        return f"{x.numerator}/{x.denominator}"
    except ValueError:
        raise InputError("cannot write a rational whose numerator or denominator is over "
                         "the interpreter's digit limit for int-to-text conversion") from None


def as_fraction_vector(values: Sequence, n: Optional[int] = None) -> tuple[Fraction, ...]:
    """The values as a tuple of Fractions, n of them when n is given.  A
    vector that is already all Fraction (exact type) is returned as it is,
    one type lookup per value instead of one as_fraction call."""
    out = tuple(values)
    if not set(map(type, out)) <= {Fraction}:
        out = tuple(map(as_fraction, out))
    if n is not None and len(out) != n:
        raise InputError(f"expected {n} values, got {len(out)}")
    return out
