"""Recursive recognition of contractible graphs, spheres and d-graphs.

A graph is contractible when some vertex x has a contractible unit sphere
S(x) and a contractible complement G-x; the one-point graph is the base
case.  A d-sphere is a graph whose unit spheres are all (d-1)-spheres and
which has some x with G-x contractible; the empty graph is the (-1)-sphere.
A d-graph only requires every unit sphere to be a (d-1)-sphere.

Each public call runs one search that owns an expansion budget and a memo
of verdicts keyed by vertex set (and dimension, for spheres): every
subgraph it visits is induced from the input, and the memo is dropped when
the call returns, so a verdict depends only on the graph, the dimension
and the budget.  An exhausted budget gives "resource_limit", not a guess.
Only is_sphere for d >= 2, is_dgraph for d >= 3 and is_contractible spend
expansions.  The removal search is a loop over a list of vertex sets, so
Python recursion grows with the dimension, not with the vertex count.

A "no" names the first check that fails, cheapest first:

1. "graph is empty" ("empty graph" for is_contractible), or "graph is
   nonempty" for d < 0;
2. "graph is disconnected": contractible graphs and spheres of dimension
   >= 1 are connected;
3. the Euler characteristic of the whole graph: deleting x gives
   chi(G) = chi(G-x) + 1 - chi(S(x)), so a contractible graph has chi = 1
   and a d-sphere chi = 1 + (-1)^d;
4. the least vertex whose unit sphere is not a (d-1)-sphere (the only
   check of is_dgraph);
5. "no vertex deletion leaves a contractible graph" for a sphere, "no
   vertex removal sequence reaches a point" for a contractible graph.

Shortcuts that rest on theorems prune the search without changing it.
Cones are contractible.  G-x needs no connectivity check once S(x) is
contractible, hence nonempty and connected.  A 0-sphere is two
non-adjacent points and a 1-sphere a cycle of length >= 4, decided without
an expansion.  A connected graph whose unit spheres are all circles is a
closed surface, and by their classification a 2-sphere iff chi = V - E/3
= 2: one expansion and no memo entry.

When every S(x) of a graph must be a 2-sphere (is_dgraph(., 3), and the
unit sphere check of every 3-sphere, also inside a 4-sphere), the rule
runs as one pass over the vertices in increasing order, so each edge link
S(x) & S(y) is walked once, on the turn of the lesser end.  Its size adds
to a sum for both ends, and when x's turn comes the sum is complete and
equals 2 E(S(x)).  x is the witness if S(x) is empty or disconnected (no
expansion); otherwise one expansion is spent, and x is the witness if a
link at x walked on its turn is not a circle of length >= 4 (those walked
earlier were circles, or the pass would have stopped) or if |S(x)| - sum/6
!= 2.  The pass stops at the least such x and stores one int per vertex.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .core import SimplicialGraph, euler_characteristic

DEFAULT_BUDGET = 10 ** 6


@dataclass
class VerificationReport:
    verdict: str  # "yes" | "no" | "resource_limit"
    dimension: Optional[int] = None
    witness: object = None
    expansions: int = 0

    @property
    def ok(self) -> bool:
        return self.verdict == "yes"


class _Exhausted(Exception):
    pass


@dataclass
class _Budget:
    """The state of one search: expansions left and spent, and its verdict memo."""
    remaining: int
    used: int = 0
    memo: dict = field(default_factory=dict)

    def spend(self):
        if self.remaining <= 0:
            raise _Exhausted
        self.remaining -= 1
        self.used += 1


def _report(witness, dimension: Optional[int]) -> VerificationReport:
    if witness is None:
        return VerificationReport("yes", dimension=dimension)
    return VerificationReport("no", witness=witness)


def _verify(decide, budget: Optional[int]) -> VerificationReport:
    """decide(search) on a fresh search; an exhausted budget gives "resource_limit"."""
    search = _Budget(DEFAULT_BUDGET if budget is None else budget)
    try:
        report = decide(search)
    except _Exhausted:
        report = VerificationReport("resource_limit", witness="expansion budget exhausted")
    report.expansions = search.used
    return report


def clear_caches():
    """Do nothing: each search's memo lives only as long as its call.

    Kept so that callers that reset the verifier between runs keep working."""


# -- subgraph views ---------------------------------------------------------


def _reach(base, active, start) -> set:
    """The vertices of the induced subgraph on active reachable from start."""
    seen = {start}
    stack = [start]
    while stack:
        new = (base.neighbors[stack.pop()] & active) - seen
        seen |= new
        stack.extend(new)
    return seen


def _connected(base, active) -> bool:
    """Whether the induced subgraph on active is connected; the search stops
    as soon as it has reached every vertex."""
    unseen = set(active)
    stack = [unseen.pop()] if unseen else []
    while stack and unseen:
        new = unseen & base.neighbors[stack.pop()]
        unseen -= new
        stack.extend(new)
    return not unseen


def components(g: SimplicialGraph) -> list[tuple[int, ...]]:
    """Connected components as sorted vertex tuples, ordered by least vertex."""
    everything = frozenset(range(g.n))
    seen: set = set()
    out = []
    for v in range(g.n):
        if v not in seen:
            comp = _reach(g, everything, v)
            seen |= comp
            out.append(tuple(sorted(comp)))
    return out


def _circle(base, active) -> bool:
    """Whether the nonempty induced subgraph is one cycle through all of it."""
    start = next(iter(active))
    prev, v = None, start
    for step in range(1, len(active) + 1):
        around = base.neighbors[v] & active
        if len(around) != 2:
            return False
        a, b = around
        prev, v = v, (b if a == prev else a)
        if v == start:
            return step == len(active)
    return False


def _dominating(base, active) -> bool:
    size = len(active)
    return any(len(base.neighbors[v] & active) == size - 1 for v in active)


def _order(base, active) -> list[int]:
    """The vertices by degree in the induced subgraph, then by number: the
    order in which a peel tries to delete them."""
    return sorted(active, key=lambda v: (len(base.neighbors[v] & active), v))


# -- contractibility ---------------------------------------------------------


def _removals(base, active, budget):
    """active - {x} for each x, in _order, whose unit sphere S(x) is contractible."""
    for x in _order(base, active):
        sphere = base.neighbors[x] & active
        # a contractible S(x) is nonempty and connected, so G-x stays connected
        if sphere and _connected(base, sphere) and _contractible(base, sphere, budget):
            yield active - {x}


def _peel(base, starts, budget) -> bool:
    """Whether some vertex set from starts reaches a point by removals.

    A depth-first search whose path is a list of (vertex set, iterator of its
    removals), so Python's stack does not grow with the number of vertices.
    Each set entered spends one expansion; a set whose removals all fail is
    memoized False, and on success every set on the path is memoized True."""
    path = [(None, starts)]
    while path:
        nxt = next(path[-1][1], None)
        if nxt is None:
            active, _ = path.pop()
            if path:
                budget.memo[active] = False
        elif _dominating(base, nxt) or budget.memo.get(nxt):
            budget.memo.update((active, True) for active, _ in path[1:])
            return True
        elif nxt not in budget.memo:
            budget.spend()
            path.append((nxt, _removals(base, nxt, budget)))
    return False


def _contractible(base, active, budget) -> bool:
    """Contractibility of a nonempty connected induced subgraph."""
    return _peel(base, iter([active]), budget)


def is_contractible(g: SimplicialGraph, budget: Optional[int] = None) -> VerificationReport:
    def decide(search):
        everything = frozenset(range(g.n))
        if g.n == 0:
            witness = "empty graph"
        elif not _connected(g, everything):
            witness = "graph is disconnected"
        elif (chi := euler_characteristic(g)) != 1:
            witness = f"Euler characteristic {chi}, a contractible graph has 1"
        elif not _contractible(g, everything, search):
            witness = "no vertex removal sequence reaches a point"
        else:
            witness = None
        return _report(witness, g.dimension() if witness is None else None)
    return _verify(decide, budget)


# -- spheres ------------------------------------------------------------------


def _sphere(base, active, d, budget):
    """None when the induced subgraph on active is a d-sphere, else the
    witness of the first check that fails (see the module docstring).  The
    Euler characteristic is checked on the whole graph only."""
    n = len(active)
    if d == -1:
        return "graph is nonempty" if n else None
    if n == 0:
        return "graph is empty"
    # the d = 0 and d = 1 base rules; a witness is looked for only when they fail
    if d == 0 and n == 2:
        a, b = active
        if b not in base.neighbors[a]:
            return None
    elif d == 1 and n >= 4 and _circle(base, active):
        return None
    if d >= 1 and not _connected(base, active):
        return "graph is disconnected"
    if n == base.n:
        chi, sphere_chi = euler_characteristic(base), 1 + (-1) ** d
        if chi != sphere_chi:
            return f"Euler characteristic {chi}, a {d}-sphere has {sphere_chi}"
    if d == 2:  # a connected closed surface is a 2-sphere iff chi = 2
        budget.spend()
        twice_edges = 0
        for v in active:
            link = base.neighbors[v] & active
            if _sphere(base, link, 1, budget) is not None:
                break
            twice_edges += len(link)
        else:
            if n - twice_edges // 6 == 2:
                return None
    elif d >= 3:
        if (active, d) in budget.memo:
            return budget.memo[active, d]
        budget.spend()
    witness = _bad_link(base, active, d, budget)
    if witness is None and (d < 3 or not _peel(
            base, (active - {x} for x in _order(base, active)), budget)):
        witness = "no vertex deletion leaves a contractible graph"
    if d >= 3:
        budget.memo[active, d] = witness
    return witness


def _bad_link(base, active, d, budget) -> Optional[int]:
    """The least vertex whose unit sphere is not a (d-1)-sphere, or None;
    for d = 3 by the one pass over edge links of the module docstring."""
    if d != 3:
        for x in sorted(active):
            if _sphere(base, base.neighbors[x] & active, d - 1, budget) is not None:
                return x
        return None
    twice_edges = dict.fromkeys(active, 0)  # sum of |link(xy)|: 2 E(S(x)) on x's turn
    for x in sorted(active):
        sphere = base.neighbors[x] & active
        if not sphere or not _connected(base, sphere):
            return x
        budget.spend()
        for y in sphere:
            if y > x:
                link = sphere & base.neighbors[y]
                if len(link) < 4 or not _circle(base, link):
                    return x
                twice_edges[x] += len(link)
                twice_edges[y] += len(link)
        if len(sphere) - twice_edges[x] // 6 != 2:
            return x
    return None


def is_sphere(g: SimplicialGraph, d: int, budget: Optional[int] = None) -> VerificationReport:
    return _verify(lambda search: _report(_sphere(g, frozenset(range(g.n)), d, search), d),
                   budget)


# -- d-graphs ------------------------------------------------------------------


def is_dgraph(g: SimplicialGraph, d: int, budget: Optional[int] = None) -> VerificationReport:
    """Check that every unit sphere is a (d-1)-sphere.  The empty graph passes
    for every d, so level set code can state "empty or a (d-1)-graph" as one
    verdict."""
    def decide(search):
        if d < 0 and g.n:
            return _report("graph is nonempty", d)
        return _report(_bad_link(g, frozenset(range(g.n)), d, search), d)
    return _verify(decide, budget)
