"""Containment graphs: barycentric refinement and function extension.

A containment graph has one vertex per simplex of a chosen list, with edges
given by strict containment.  The barycentric refinement takes every
simplex of the clique complex, in order of dimension and then
lexicographically within a dimension, so ids are reproducible; level sets
(see levelset) take the simplices on which a function changes sign.

A function extends to a containment graph by its mean over each support,
an exact integer operation: the numerators over the lcm of the support's
own denominators, divided once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Optional, Sequence

from .core import Simplex, SimplicialGraph
from .rational import as_fraction_vector


@dataclass(frozen=True)
class RefinedGraph:
    graph: SimplicialGraph
    parent: SimplicialGraph
    origin: tuple[Simplex, ...]  # originating parent simplex per vertex


def containment_graph(origin: Sequence[Simplex], min_dim: int = 0,
                      coordinates: Optional[Sequence[tuple[float, ...]]] = None
                      ) -> SimplicialGraph:
    """The graph on distinct simplices joined by strict containment.

    Vertex i is origin[i] and is labeled by it.  Each simplex is joined to
    those of its faces that have dimension at least min_dim and appear in
    origin; faces below min_dim are not looked up.  Coordinates, when
    given, are already the form a graph holds: one tuple of floats per
    simplex, all of one length, as barycentric and levelset compute them
    from a parent graph's.  They are kept as given, not converted again.
    """
    index = {s: i for i, s in enumerate(origin)}
    nbrs = [set() for _ in origin]
    for i, s in enumerate(origin):
        for size in range(min_dim + 1, len(s)):
            for t in combinations(s, size):
                j = index.get(t)
                if j is not None:
                    nbrs[j].add(i)
                    nbrs[i].add(j)
    return SimplicialGraph._from_neighbors(nbrs, origin, coordinates)


def barycentric(g: SimplicialGraph) -> RefinedGraph:
    """Barycentric refinement; preserves the Euler characteristic.

    New coordinates, when the parent carries any, are simplex centroids.
    """
    origin = tuple(s for group in g.simplices() for s in group)
    coords, points = None, g.coordinates
    if points is not None:
        coords = [tuple([sum(column) / len(s) for column in zip(*[points[v] for v in s])])
                  for s in origin]
    return RefinedGraph(containment_graph(origin, 0, coords), g, origin)


def extend_by_support(values: Sequence[Fraction],
                      supports: Sequence[Sequence[int]]) -> list[Fraction]:
    """Average a vertex function over each support (a simplex or a multiset).

    Each mean is one Fraction built from integers: the numerators are
    summed over the lcm of that support's own denominators (one lcm over
    the whole vector would grow with every distinct denominator in it).
    int values are read as integers, and an empty support raises
    ZeroDivisionError.
    """
    out = []
    for sup in supports:
        xs = [values[v] for v in sup]
        den = lcm(*[x.denominator for x in xs])
        out.append(Fraction(sum([x.numerator * (den // x.denominator) for x in xs]),
                            den * len(xs)))
    return out


def extend_function(f: Sequence, r) -> tuple[Fraction, ...]:
    """Average a parent vertex function over each originating simplex.

    The mean is unweighted and exact: values are coerced to Fraction first.
    """
    return tuple(extend_by_support(as_fraction_vector(f, r.parent.n), r.origin))
