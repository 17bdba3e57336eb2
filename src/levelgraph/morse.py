"""Poincare-Hopf indices, curvature and index expectation.

For a locally injective f the index of a vertex is 1 - chi(S^-(x)), where
S^-(x) is the part of the unit sphere where f drops below f(x).  Indices
sum to the Euler characteristic, as does the curvature
K(x) = 1 - v0/2 + v1/3 - v2/4 + ... built from the f-vector of S(x), and
K(x) equals the expectation of the symmetric index over random orderings
of the closed ball around x.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from .core import SimplicialGraph, euler_characteristic
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


def _check_locally_injective(g, values):
    for u, v in g.edges():
        if values[u] == values[v]:
            raise NotLocallyInjective((u, v), values[u])


def _half_sphere(g, values, x, below: bool = True):
    """S^-(x), or S^+(x) when below is false: the unit sphere of x below (above) f(x)."""
    fx = values[x]
    return g.induced([v for v in sorted(g.neighbors[x]) if (values[v] < fx) == below])


def ph_index(g: SimplicialGraph, f: Sequence, x: int,
             budget: Optional[int] = None) -> IndexReport:
    """Index, symmetric index and second-derivative-test classification at x."""
    values = as_fraction_vector(f, g.n)
    _check_locally_injective(g, values)
    lower, upper = _half_sphere(g, values, x), _half_sphere(g, values, x, below=False)
    index = 1 - euler_characteristic(lower)
    index_neg = 1 - euler_characteristic(upper)
    symmetric = Fraction(index + index_neg, 2)
    d = g.dimension()
    sphere_report = is_sphere(lower, d - 1, budget=budget)
    if sphere_report.ok:
        kind = "local_max"
    elif lower.n == 0:
        kind = "local_min"
    elif d == 2 and index < 0:
        kind = "saddle"
    else:
        contract = is_contractible(lower, budget=budget)
        if contract.ok:
            kind = "regular"
        else:
            # genuinely non-contractible sublevel or a budget limit: do not guess
            kind = "unclassified"
    return IndexReport(x, lower, index, symmetric, kind)


def ph_sum_check(g: SimplicialGraph, f: Sequence) -> tuple[int, int]:
    """(sum of indices over all vertices, Euler characteristic)."""
    values = as_fraction_vector(f, g.n)
    _check_locally_injective(g, values)
    total = 0
    for x in range(g.n):
        total += 1 - euler_characteristic(_half_sphere(g, values, x))
    return total, euler_characteristic(g)


def curvature(g: SimplicialGraph) -> CurvatureVector:
    """Exact curvature per vertex; the values sum to chi(g)."""
    out = []
    for x in range(g.n):
        k = Fraction(1)
        for dim, count in enumerate(g.unit_sphere(x).f_vector()):
            k += Fraction((-1) ** (dim + 1) * count, dim + 2)
        out.append(k)
    return CurvatureVector(tuple(out), sum(out, Fraction(0)))


def central_surface(g: SimplicialGraph, f: Sequence, x: int) -> LevelSurfaceGraph:
    """The level set {f = f(x)} inside the unit sphere of x.

    In a d-graph this is a (d-2)-graph; its Euler characteristic determines
    the symmetric index.
    """
    values = as_fraction_vector(f, g.n)
    fx = values[x]
    for y in sorted(g.neighbors[x]):
        if values[y] == fx:
            raise NotLocallyInjective((min(x, y), max(x, y)), fx)
    sel = sorted(g.neighbors[x])
    sphere = g.induced(sel)
    return level_surface(sphere, [values[v] for v in sel], fx)


def _symmetric_value(sphere, chi_cache, subset):
    lower = frozenset(subset)
    upper = frozenset(range(sphere.n)) - lower
    vals = []
    for part in (lower, upper):
        chi = chi_cache.get(part)
        if chi is None:
            chi = euler_characteristic(sphere.induced(part))
            chi_cache[part] = chi
        vals.append(1 - chi)
    return Fraction(vals[0] + vals[1], 2)


def index_expectation(g: SimplicialGraph, x: int, samples: int,
                      seed: int) -> tuple[Fraction, float]:
    """Monte Carlo mean of the symmetric index over random orderings of the
    closed ball around x; returns (estimate, standard error)."""
    if samples <= 0:
        raise InputError("samples must be positive")
    rng = random.Random(seed)
    sphere = g.unit_sphere(x)
    ball = sphere.n + 1  # x itself plus its neighbors
    chi_cache: dict = {}
    total = Fraction(0)
    total_sq = 0.0
    for _ in range(samples):
        order = list(range(ball))
        rng.shuffle(order)
        rank_x = order[ball - 1]  # treat the last slot as the rank of x
        subset = [v for v in range(sphere.n) if order[v] < rank_x]
        j = _symmetric_value(sphere, chi_cache, subset)
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
    sphere = g.unit_sphere(x)
    deg = sphere.n
    if deg > 16:
        raise InputError("exact expectation is limited to degree <= 16")
    chi_cache: dict = {}
    total = Fraction(0)
    for size in range(deg + 1):
        level_sum = Fraction(0)
        for subset in combinations(range(deg), size):
            level_sum += _symmetric_value(sphere, chi_cache, subset)
        total += level_sum / math.comb(deg, size)
    return total / (deg + 1)
