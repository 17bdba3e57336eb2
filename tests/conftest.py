"""Shared fixtures and independent oracles for the test suite.

The oracles here recompute quantities by definition (subset enumeration,
permutation scans) so the library implementations are checked against
something that cannot share their bugs.
"""

from __future__ import annotations

import ast
import operator
import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from levelgraph.core import SimplicialGraph


def random_injective(rng: random.Random, n: int, span: int = 10 ** 6) -> list[Fraction]:
    """Distinct random rationals, one per vertex."""
    nums = rng.sample(range(-span, span), n)
    return [Fraction(a, rng.randint(1, 97)) for a in nums]


def hard_rationals(rng: random.Random, n: int) -> list[Fraction]:
    """Seeded Fractions of both signs for the integer kernels: small and
    40-digit numerators over mixed denominators (1, powers of two, small and
    Mersenne primes, 2^200 + 7 and 10^30)."""
    dens = (1, 2, 2 ** 53, 3, 97, 2 ** 61 - 1, 2 ** 200 + 7, 10 ** 30)
    return [Fraction(rng.choice((rng.randint(-9, 9), rng.randint(-10 ** 40, 10 ** 40))),
                     rng.choice(dens)) for _ in range(n)]


def gap_level(values, rng: random.Random) -> Fraction:
    """A level strictly inside a random gap of the value set."""
    distinct = sorted(set(values))
    i = rng.randrange(len(distinct) - 1)
    lo, hi = distinct[i], distinct[i + 1]
    t = Fraction(rng.randint(1, 9), 10)
    return lo + (hi - lo) * t


def brute_euler(g: SimplicialGraph) -> int:
    """Euler characteristic by scanning all vertex subsets up to size 6.

    Only usable on small graphs; cliques larger than 6 vertices make the
    alternating sum wrong, so callers must keep dimensions below that.
    """
    chi = 0
    verts = list(range(g.n))
    for size in range(1, 7):
        for sub in combinations(verts, size):
            if all(g.adjacent(u, v) for u, v in combinations(sub, 2)):
                chi += 1 if size % 2 == 1 else -1
    return chi


def kuhn_grid_by_edges(d, cells, periodic=False, origin=None, step=None) -> SimplicialGraph:
    """The Kuhn grid built from an edge list of lattice-point tuples.

    For each point p in product order and each nonzero 0/1 vector off in
    product order, p is joined to p + off (wrapped when periodic); ids come
    from a point -> id dict and coordinates from Fraction arithmetic per
    point.  This was catalog.kuhn_grid before it moved to index arithmetic.
    """
    sizes = tuple(cells) if periodic else tuple(c + 1 for c in cells)
    points = list(product(*(range(s) for s in sizes)))
    index = {p: i for i, p in enumerate(points)}
    offsets = [off for off in product((0, 1), repeat=d) if any(off)]
    edges = []
    for p in points:
        for off in offsets:
            q = tuple(p[k] + off[k] for k in range(d))
            if periodic:
                q = tuple(q[k] % sizes[k] for k in range(d))
            elif any(q[k] >= sizes[k] for k in range(d)):
                continue
            edges.append((index[p], index[q]))
    coords = None
    if not periodic:
        origin = (Fraction(0),) * d if origin is None else origin
        step = Fraction(1) if step is None else step
        coords = [tuple(float(origin[k] + p[k] * step) for k in range(d)) for p in points]
    return SimplicialGraph(len(points), edges, labels=points, coordinates=coords)


def fraction_polynomial(text: str, nvars: int):
    """The polynomial text as a function of a point, one Fraction per operation.

    Every +, -, * and ^ builds a normalised Fraction, and p/q literals fold
    to constants: variety's evaluator before it moved to an integer kernel.
    It checks nothing, so it takes only text that parse_polynomial accepts.
    """
    names = {f"x{i + 1}": i for i in range(nvars)}
    names.update(zip("xyzw", range(nvars)))
    binary = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul}

    def compile_node(node):
        if isinstance(node, ast.Constant):
            value = Fraction(node.value)
            return lambda p: value
        if isinstance(node, ast.Name):
            return operator.itemgetter(names[node.id])
        if isinstance(node, ast.UnaryOp):
            operand = compile_node(node.operand)
            return operand if isinstance(node.op, ast.UAdd) else lambda p: -operand(p)
        if isinstance(node.op, ast.Div):
            value = Fraction(node.left.value, node.right.value)
            return lambda p: value
        if isinstance(node.op, ast.Pow):
            base, exponent = compile_node(node.left), node.right.value
            return lambda p: base(p) ** exponent
        op = binary[type(node.op)]
        left, right = compile_node(node.left), compile_node(node.right)
        return lambda p: op(left(p), right(p))

    fn = compile_node(ast.parse(text.replace("^", "**"), mode="eval").body)
    return lambda point: fn(tuple(Fraction(c) for c in point))


def same_graph(a: SimplicialGraph, b: SimplicialGraph) -> bool:
    """Equal vertex count, labels and coordinates (floats bit for bit, all held
    as tuples), and neighbour sets that iterate in the same order."""
    def bits(coords):
        return None if coords is None else [[c.hex() for c in p] for p in coords]

    return (a.n == b.n
            and type(b.neighbors) is tuple and all(type(s) is frozenset for s in b.neighbors)
            and all(list(s) == list(t) for s, t in zip(a.neighbors, b.neighbors))
            and a.labels == b.labels
            and (a.labels is None or type(b.labels) is tuple)
            and bits(a.coordinates) == bits(b.coordinates)
            and (b.coordinates is None
                 or type(b.coordinates) is tuple and all(type(p) is tuple for p in b.coordinates)))


def paper_octahedron() -> SimplicialGraph:
    """Octahedron with a 4-cycle equator 0..3 and poles 4, 5."""
    edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
    edges += [(i, 4) for i in range(4)]
    edges += [(i, 5) for i in range(4)]
    return SimplicialGraph(6, edges)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
