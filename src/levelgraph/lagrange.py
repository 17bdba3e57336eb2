"""Sign gradients over GF(2), rank checks and Lagrange candidate triangles.

The sign gradient of f on a top-dimensional simplex, seen from a root
vertex, records for every other vertex (ascending id) whether f increases
(bit 1) or decreases (bit 0) from the root.  A crossing vector does the
same relative to a level: bit j is set when vertex j of the simplex sits
on the opposite side of the level from the root.  Regularity of a
simultaneous locus is checked through crossing vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd
from typing import Optional, Sequence

from .core import Simplex, SimplicialGraph
from .errors import InputError, LevelHitsVertex, TieOnSimplex
from .levelset import _triangles
from .rational import as_fraction, as_fraction_vector


@dataclass(frozen=True)
class SignGradient:
    root: int
    simplex: Simplex
    bits: tuple[int, ...]  # one bit per non-root vertex, ascending vertex id


@dataclass(frozen=True)
class MaxRankReport:
    ok: bool
    simplex: Optional[Simplex] = None
    root: Optional[int] = None
    dependent: tuple[int, ...] = ()  # indices of a dependent function subset
    checked: int = 0


@dataclass(frozen=True)
class InjectivityReport:
    passed: bool
    scope: str
    failures: tuple = ()
    # pairwise distinctness plus subset-sum separation is a decidable stand-in
    # for rational independence, which is not decidable from finite data
    surrogate: bool = True


def _check_ties(values, simplex):
    """Raise TieOnSimplex at the first vertex of simplex whose entry in values
    (any hashable, such as a Fraction or a tie key) repeats an earlier one."""
    seen = {}
    for v in simplex:
        x = values[v]
        if x in seen:
            raise TieOnSimplex(simplex, (seen[x], v))
        seen[x] = v


def sign_gradient(values: Sequence, simplex: Simplex, root: int) -> SignGradient:
    if root not in simplex:
        raise InputError(f"root {root} not in simplex {simplex}")
    _check_ties(values, simplex)
    base = values[root]
    bits = tuple(1 if values[v] > base else 0 for v in simplex if v != root)
    return SignGradient(root, tuple(simplex), bits)


def _gf2_dependent(vectors: list[int]) -> Optional[list[int]]:
    """Indices of a dependent subset, or None when independent over GF(2)."""
    basis: dict[int, tuple[int, int]] = {}  # pivot bit -> (vector, combination mask)
    for i, v in enumerate(vectors):
        combo = 1 << i
        while v:
            p = v.bit_length() - 1
            if p not in basis:
                basis[p] = (v, combo)
                combo = 0
                break
            bv, bc = basis[p]
            v ^= bv
            combo ^= bc
        if v == 0 and combo:
            return [j for j in range(len(vectors)) if combo >> j & 1]
    return None


def max_rank_check(g: SimplicialGraph, fs: Sequence[Sequence],
                   levels: Optional[Sequence] = None) -> MaxRankReport:
    """Regularity check for the simultaneous locus at the given levels.

    Only top simplices on which every function changes sign matter; the
    locus is built from exactly those and their sub-simplices.  Each one
    must satisfy two conditions: the crossing vectors of the functions
    are independent over GF(2) at every root, and (for two or more
    functions) at most one edge of the simplex crosses all levels at
    once.  The second condition is what rules out median splits whose
    vectors look independent from every root but still produce
    surplus locus triangles.  Levels default to zero.  The first
    violation found is reported with a dependent index subset; a single
    locally injective function always passes.

    Ties, level hits and sides are decided once per vertex: a value's tie
    key is its (numerator, denominator), equal exactly when the values
    are.  The scan of the top simplices reads only these, in the order a
    per-simplex check compares (ties of every function, then level hits
    by function and vertex, then sides), so the same first simplex raises
    the same TieOnSimplex or LevelHitsVertex.
    """
    functions = [as_fraction_vector(f, g.n) for f in fs]
    k = len(functions)
    if k == 0:
        raise InputError("at least one function required")
    if levels is None:
        cs = [as_fraction(0)] * k
    else:
        if len(levels) != k:
            raise InputError("need one level per function")
        cs = [as_fraction(c) for c in levels]
    groups = g.simplices()
    top = groups[-1] if groups else ()
    keys = [[(x.numerator, x.denominator) for x in vals] for vals in functions]
    above = [[x > c for x in vals] for vals, c in zip(functions, cs)]
    hits = [{v for v, x in enumerate(vals) if x == c} for vals, c in zip(functions, cs)]
    checked = 0
    for s in top:
        for key in keys:
            _check_ties(key, s)
        for hit, c in zip(hits, cs):
            if hit:
                for v in s:
                    if v in hit:
                        raise LevelHitsVertex(v, c)
        sides = [[side[v] for v in s] for side in above]
        if not all(len(set(side)) == 2 for side in sides):
            continue  # some function does not change sign: simplex not in the locus
        masks = [sum(bit << j for j, bit in enumerate(side)) for side in sides]
        full = (1 << len(s)) - 1
        for r, root in enumerate(s):
            # the root's own bit is always clear, so it does not affect the rank
            vectors = [m ^ full if side[r] else m for m, side in zip(masks, sides)]
            checked += 1
            dep = _gf2_dependent(vectors)
            if dep is not None:
                return MaxRankReport(False, s, root, tuple(dep), checked)
        if k >= 2:
            crossing_edges = [e for e in combinations(range(len(s)), 2)
                              if all(side[e[0]] != side[e[1]] for side in sides)]
            checked += 1
            if len(crossing_edges) > 1:
                extra = crossing_edges[1]
                return MaxRankReport(False, s, s[extra[0]], tuple(range(k)), checked)
    return MaxRankReport(True, checked=checked)


def lagrange_candidates(g: SimplicialGraph, f: Sequence, h: Sequence) -> list[Simplex]:
    """Triangles of a 2-graph where the two sign gradients can be parallel.

    A triangle qualifies when some root sees equal gradient vectors, or when
    either function repeats a value on the triangle (the degenerate case of
    a vanishing gradient).  These are the candidates for extrema of f under
    the constraint h.
    """
    triangles = _triangles(g)  # raises NotASurface, naming its witness
    vf = as_fraction_vector(f, g.n)
    vh = as_fraction_vector(h, g.n)
    out = []
    for t in triangles:
        try:
            if any(sign_gradient(vf, t, r).bits == sign_gradient(vh, t, r).bits
                   for r in t):
                out.append(t)
        except TieOnSimplex:
            out.append(t)
    return out


def strong_injectivity_check(g: SimplicialGraph, fs: Sequence[Sequence],
                             scope: str = "global") -> InjectivityReport:
    """Operational surrogate for strong injectivity of a function family.

    scope="global" demands that all values of all functions be pairwise
    distinct.  scope="per_simplex" demands, simplex by simplex, that all
    subset sums of the values (denominators cleared) be distinct, so no
    rational combination with 0/1 coefficients can collide; more than 20
    values on a top simplex raise InputError up front.  A pass is evidence,
    not a proof of rational independence.
    """
    functions = [as_fraction_vector(f, g.n) for f in fs]
    if scope == "global":
        seen = {}
        failures = []
        for i, vals in enumerate(functions):
            for v, x in enumerate(vals):
                if x in seen:
                    failures.append((seen[x], (i, v)))
                else:
                    seen[x] = (i, v)
        return InjectivityReport(not failures, scope, tuple(failures))
    if scope != "per_simplex":
        raise InputError(f"unknown scope {scope!r}")
    largest = (g.dimension() + 1) * len(functions)
    if largest > 20:
        raise InputError(f"per-simplex subset check limited to 20 values, "
                         f"a top simplex has {largest}")
    failures = []
    for group in g.simplices():
        for s in group:
            values = [vals[v] for vals in functions for v in s]
            denom = 1
            for x in values:
                denom = denom * x.denominator // gcd(denom, x.denominator)
            clash = _equal_subset_sums([int(x * denom) for x in values])
            if clash is not None:
                failures.append((s, *clash))
    return InjectivityReport(not failures, scope, tuple(failures))


def _equal_subset_sums(ints: list[int]) -> Optional[tuple[int, int]]:
    """The first pair (earlier, mask) of subset masks, in ascending mask order,
    whose sums are equal; None when all 2^n subset sums are distinct.

    totals[mask] is the sum of the subset mask, built by doubling: the sums
    with bit i set are the sums of masks below 2^i plus ints[i].  While no
    sum repeats, the new sums are distinct among themselves, so a repeat
    can only be with an earlier block."""
    totals = [0]
    seen = {0}
    for i, x in enumerate(ints):
        block = [t + x for t in totals]
        if not seen.isdisjoint(block):
            low = next(j for j, t in enumerate(block) if t in seen)
            return totals.index(block[low]), (1 << i) + low
        totals += block
        seen.update(block)
    return None
