"""Iterated level surfaces for several functions, one level at a time.

Each stage cuts the previous surface along the next function.  Functions
live on the original vertex set, so they are carried to later stages by
averaging over the multiset of original vertices supporting each surface
vertex.  The support of a surface vertex is the concatenation of the
supports of the vertices in its origin simplex, flattened and kept with
multiplicity; a vertex reachable through two paths counts twice.

Means and orders are exact integer operations on numerators and
denominators: refine.extend_by_support sums each support over its own
lcm, and a stage's value set is sorted by the integer key floor(x * 2^64),
which is monotone in x, with a Fraction compare breaking its ties.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Optional, Sequence

from .core import SimplicialGraph
from .errors import ConstantExtension, EmptyStage, IncompatibleLevel, InputError
from .levelset import LevelSurfaceGraph, level_surface
from .rational import as_fraction, as_fraction_vector
from .refine import extend_by_support
from .topology import VerificationReport, is_dgraph

Support = tuple[int, ...]

EXTENSION_RULE = "flattened-multiset-mean"


@dataclass(frozen=True)
class SardStage:
    function_index: int  # 1-based position in the function list
    level: Fraction
    perturbed: bool
    input_values: tuple[Fraction, ...]
    excluded: tuple[Fraction, ...]  # value set of the stage input function
    surface: LevelSurfaceGraph
    support: tuple[Support, ...]
    verdict: VerificationReport


@dataclass(frozen=True)
class SardTrace:
    graph: SimplicialGraph
    dimension: int
    stages: tuple[SardStage, ...]
    extension_rule: str = EXTENSION_RULE

    @property
    def final(self) -> SimplicialGraph:
        return self.stages[-1].surface.graph

    @property
    def all_regular(self) -> bool:
        return all(s.verdict.ok for s in self.stages)


def sard_pipeline(g: SimplicialGraph, fs: Sequence[Sequence],
                  cs: Sequence, *, budget: Optional[int] = None,
                  perturb: bool = False) -> SardTrace:
    """Cut g along fs[0]=cs[0], then the extension of fs[1]=cs[1], and so on.

    Each stage graph H_i is checked to be a (d-i)-graph, which is the
    discrete Sard conclusion for that stage.  A level that hits the
    stage's value set raises IncompatibleLevel, unless perturb is set:
    then the level moves to the middle of the gap up to the least value
    above it (up by 1 when none is above), which cuts what any small step
    up cuts, with crossing points clear of the vertices, and the stage
    records that it was perturbed.  Stage 1 needs no extension: its
    supports are the singletons (v,), so it reads fs[0] as it is, and the
    sorted flattening of the singletons of an origin simplex is the simplex
    itself, so the stage-1 supports are the surface's origin.
    """
    k = len(fs)
    d = g.dimension()
    if k == 0:
        raise InputError("at least one function required")
    if len(cs) != k:
        raise InputError(f"{k} functions but {len(cs)} levels")
    if k > d:
        raise InputError(f"{k} functions exceed graph dimension {d}")
    functions = [as_fraction_vector(f, g.n) for f in fs]
    levels = [as_fraction(c) for c in cs]

    current = g
    supports: tuple[Support, ...] = ()  # stage 1 reads none
    stages: list[SardStage] = []
    for i in range(k):
        stage = i + 1
        values = extend_by_support(functions[i], supports) if i else functions[0]
        value_set = set(values)
        if len(value_set) == 1:
            raise ConstantExtension(stage, values[0])
        # the floor of x * 2^64 is monotone in x, and a tie falls back to x itself
        excluded = tuple(sorted(value_set, key=lambda x: ((x.numerator << 64) // x.denominator, x)))
        c = levels[i]
        perturbed = c in value_set
        if perturbed and not perturb:
            witnesses = tuple(v for v in range(current.n) if values[v] == c)
            raise IncompatibleLevel(stage, c, witnesses)
        if perturbed:  # the middle of the gap above c, or c + 1 when no value is above
            c = (c + next((x for x in excluded if x > c), c + 2)) / 2
        surface = level_surface(current, values, c)
        if surface.graph.n == 0:
            raise EmptyStage(stage, c)
        new_supports = surface.origin if i == 0 else tuple(
            tuple(sorted(chain.from_iterable(supports[u] for u in origin)))
            for origin in surface.origin)
        verdict = is_dgraph(surface.graph, d - stage, budget=budget)
        stages.append(SardStage(stage, c, perturbed, tuple(values), excluded,
                                surface, new_supports, verdict))
        current = surface.graph
        supports = new_supports
    return SardTrace(g, d, tuple(stages))
