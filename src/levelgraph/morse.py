"""Poincare-Hopf indices, curvature and index expectation.

For a locally injective f the index of a vertex is 1 - chi(S^-(x)), where
S^-(x) is the part of the unit sphere where f drops below f(x).  Indices
sum to the Euler characteristic, as does the curvature
K(x) = 1 - v0/2 + v1/3 - v2/4 + ... built from the f-vector of S(x), and
K(x) equals the expectation of the symmetric index over random orderings
of the closed ball around x.  Subsets of S(x) are vertex sets of g (chi
from core._euler_of); only ph_index's sublevel and the sphere that
central_surface cuts are built as graphs.  Every chi here is counted
(core._clique_counts), so no complex is listed or cached for it.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from typing import Optional, Sequence

from .core import SimplicialGraph, _euler_of, euler_characteristic
from .errors import InputError, NotLocallyInjective
from .levelset import LevelSurfaceGraph, level_surface
from .rational import as_fraction_vector
from .topology import is_contractible, is_sphere


@dataclass(frozen=True)
class IndexReport:
    vertex: int
    sublevel: SimplicialGraph          # S^-(x)
    index: int
    symmetric: Fraction                # (i_f(x) + i_{-f}(x)) / 2
    classification: str  # local_min | local_max | saddle | regular | unclassified


@dataclass(frozen=True)
class CurvatureVector:
    values: tuple[Fraction, ...]
    total: Fraction


def _split(g, values, x):
    """The neighbours of x below f(x), ascending; raises at the first
    neighbour, in ascending order, where f ties with f(x)."""
    fx = values[x]
    n, d = fx.numerator, fx.denominator
    below = []
    for y in sorted(g.neighbors[x]):
        fy = values[y]
        side = fy.numerator * d - n * fy.denominator  # the sign of f(y) - f(x)
        if side == 0:
            raise NotLocallyInjective((min(x, y), max(x, y)), fx)
        if side < 0:
            below.append(y)
    return below


def ph_index(g: SimplicialGraph, f: Sequence, x: int,
             budget: Optional[int] = None) -> IndexReport:
    """Index, symmetric index and second-derivative-test classification at x.

    f must differ from f(x) on every neighbour of x; ties elsewhere, even
    between two neighbours of x, are allowed.
    """
    below = _split(g, as_fraction_vector(f, g.n), x)
    lower = g.induced(below)
    chi = euler_characteristic(lower)  # counted, not listed
    index = 1 - chi
    symmetric = _symmetric_value(g, x, {frozenset(below): chi}, below)
    d = g.dimension()
    # a (d-1)-sphere has chi = 1 + (-1)^(d-1) and a contractible graph chi = 1;
    # with another chi each check answers no before it spends any budget, so
    # it is not called
    if chi == 1 + (-1) ** (d - 1) and is_sphere(lower, d - 1, budget=budget).ok:
        kind = "local_max"
    elif lower.n == 0:
        kind = "local_min"
    elif d == 2 and index < 0:
        kind = "saddle"
    elif chi == 1 and is_contractible(lower, budget=budget).ok:
        kind = "regular"
    else:
        # genuinely non-contractible sublevel or a budget limit: do not guess
        kind = "unclassified"
    return IndexReport(x, lower, index, symmetric, kind)


def ph_sum_check(g: SimplicialGraph, f: Sequence) -> tuple[int, int]:
    """(sum of indices over all vertices, Euler characteristic).

    Each index is 1 - chi(S^-(x)), counted vertex by vertex on its own
    sublevel; chi(g) is the alternating sum of g's f-vector, counted apart
    from them.  Neither is derived from the other (counting each simplex at
    its top vertex would be the proof of Poincare-Hopf), so the two agree
    by the theorem, not by construction.  f must be locally injective on
    all of g; a tie raises at the lexicographically first tied edge.
    """
    values = as_fraction_vector(f, g.n)
    total = 0
    for x in range(g.n):
        total += 1 - _euler_of(g, _split(g, values, x))
    return total, euler_characteristic(g)


def curvature(g: SimplicialGraph) -> CurvatureVector:
    """Exact curvature per vertex; the values sum to chi(g).

    K(x) = 1 - v0/2 + v1/3 - ... over the f-vector of S(x) is the sum, over
    the simplices s containing x, of (-1)^dim s / (dim s + 1) (Knill, A graph
    theoretical Gauss-Bonnet-Chern theorem, arXiv:1111.5395): removing x
    maps the simplices of dimension k >= 1 containing x onto those of S(x) of
    dimension k - 1, and x itself is the one of dimension 0.  So one pass
    over the complex counts, per dimension, the simplices at each vertex;
    the weights share one denominator, and each vertex makes one Fraction.
    """
    groups = g.simplices()
    denom = math.lcm(*range(1, len(groups) + 1))
    numerators = [0] * g.n
    for dim, group in enumerate(groups):
        weight = (-1) ** dim * (denom // (dim + 1))
        for x, count in Counter(chain.from_iterable(group)).items():
            numerators[x] += weight * count
    return CurvatureVector(tuple(Fraction(k, denom) for k in numerators),
                           Fraction(sum(numerators), denom))


def central_surface(g: SimplicialGraph, f: Sequence, x: int) -> LevelSurfaceGraph:
    """The level set {f = f(x)} inside the unit sphere of x.

    In a d-graph this is a (d-2)-graph; its Euler characteristic determines
    the symmetric index.
    """
    values = as_fraction_vector(f, g.n)
    _split(g, values, x)  # raises on a tie with f(x)
    nbrs = sorted(g.neighbors[x])
    return level_surface(g.induced(nbrs), [values[v] for v in nbrs], values[x])


def _symmetric_value(g, x, chi_cache, subset):
    """The symmetric index at x when subset is the part of S(x) below f(x)."""
    lower = frozenset(subset)
    upper = g.neighbors[x] - lower
    for part in (lower, upper):
        if part not in chi_cache:
            chi_cache[part] = _euler_of(g, part)
    return Fraction(2 - chi_cache[lower] - chi_cache[upper], 2)


def index_expectation(g: SimplicialGraph, x: int, samples: int,
                      seed: int) -> tuple[Fraction, float]:
    """Monte Carlo mean of the symmetric index over random orderings of the
    closed ball around x; returns (estimate, standard error)."""
    if samples <= 0:
        raise InputError("samples must be positive")
    rng = random.Random(seed)
    nbrs = sorted(g.neighbors[x])
    ball = len(nbrs) + 1  # x itself plus its neighbors
    chi_cache: dict = {}
    total = Fraction(0)
    total_sq = 0.0
    for _ in range(samples):
        order = list(range(ball))
        rng.shuffle(order)
        rank_x = order[ball - 1]  # treat the last slot as the rank of x
        subset = [v for i, v in enumerate(nbrs) if order[i] < rank_x]
        j = _symmetric_value(g, x, chi_cache, subset)
        total += j
        total_sq += float(j) * float(j)
    mean = total / samples
    var = max(total_sq / samples - float(mean) ** 2, 0.0)
    stderr = math.sqrt(var / samples)
    return mean, stderr


def index_expectation_exact(g: SimplicialGraph, x: int) -> Fraction:
    """Exact expectation of the symmetric index over all orderings of the
    closed ball; equals the curvature at x.

    Conditioning on the rank of x leaves a uniformly random sublevel subset
    of each size, so the average runs over subsets weighted by 1/(ball size
    * binomial(deg, size)) rather than over all permutations.
    """
    nbrs = sorted(g.neighbors[x])
    deg = len(nbrs)
    if deg > 16:
        raise InputError("exact expectation is limited to degree <= 16")
    chi_cache: dict = {}
    total = Fraction(0)
    for size in range(deg + 1):
        level_sum = Fraction(0)
        for subset in combinations(nbrs, size):
            level_sum += _symmetric_value(g, x, chi_cache, subset)
        total += level_sum / math.comb(deg, size)
    return total / (deg + 1)
