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
non-adjacent points and a 1-sphere a cycle of length >= 4 (_cycle checks
the length too and returns the walk, which levelset._triangles reads),
decided without an expansion.  A connected graph whose
unit spheres are all circles is a closed surface, a 2-sphere iff chi =
V - E/3 = 2 by their classification, and check 3 has required that: one
expansion, check 4 and no peel or memo entry.  Only whole graphs reach
this rule; the pass below decides the 2-sphere unit spheres of 3-graphs.

When every S(x) of a graph must be a 2-sphere (is_dgraph(., 3), and the
unit sphere check of every 3-sphere, also inside a 4-sphere), the rule
runs as one pass over the vertices in increasing order, so each edge link
L = S(x) & S(y) is decided once, on the turn of the lesser end.  Its size
adds to a sum for both ends, and when x's turn comes the sum is complete
and equals 2 E(S(x)).  x is the witness if S(x) is empty or disconnected
(no expansion); otherwise one expansion is spent, and x is the witness if
a link decided on its turn is not a circle of length >= 4 (those decided
earlier were circles, or the pass would have stopped) or if |S(x)| - sum/6
!= 2.  The pass stops at the least such x and stores one int per vertex.

A link is decided from the links of its triangles, L & S(z) for z in L,
and walked only when it is large.  Lemma: if every z in L has exactly two
neighbours in L, and they are not adjacent, then L is a disjoint union of
cycles of length >= 4; two of them need 8 vertices, so L is one circle
when |L| < 8.  On x's turn a link with |L| < 4 fails, one with |L| >= 8 is
walked by _cycle, and in the others each triangle xyz with y < z is
checked.  Every triangle xyz with x < y < z is so checked, or lies in a
walked link of x, and one whose least vertex came earlier lay in a link
that passed then: so x fails on its turn exactly when some link at x is
not a circle of length >= 4, with the same spends and the same sums.  A
triangle is one set intersection, where walking each link met each
triangle three times.

The peel (G-x for a sphere, the graph itself for a contractible graph) is
a depth-first search over removal sequences.  At each vertex set A it tries
the vertices by degree in A, then by number, and goes on to A-{x} for the
first x whose S(x) is contractible; a set memoized False is skipped.  From
each set the loop in _peel enters, _walk takes that first branch as a
worklist.  It keeps each vertex's degree in A, a count of vertices per
degree (A is a cone iff some vertex has degree |A|-1) and a heap of the
vertices still to test, keyed (degree, vertex).  A removal then costs
O(deg x log n) besides the copy of A that the memo is keyed by, where the
search re-sorted and rescanned all of A.  A vertex whose S(x) failed is
tested again only after a neighbour goes: until then S(x) is the same set,
its failure is memoized, and testing it again changes nothing.  A vertex
skipped because the memo holds A-{x} False is tested again after the next
removal.  So the walk makes the search's link checks, spends and memo
writes, in its order (tests/test_topology.py compares the two).  When no
vertex is left to test, the walk hands the loop the path the search would
hold there: each set it left with an iterator over the rest of its order,
and the stalled set with none.  The loop backtracks from there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
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


def _components(base, active) -> list[set]:
    """The components of the induced subgraph on the set active, by least vertex."""
    seen: set = set()
    out = []
    for v in sorted(active):
        if v not in seen:
            out.append(_reach(base, active, v))
            seen |= out[-1]
    return out


def components(g: SimplicialGraph) -> list[tuple[int, ...]]:
    """Connected components as sorted vertex tuples, ordered by least vertex."""
    return [tuple(sorted(comp)) for comp in _components(g, frozenset(range(g.n)))]


def _cycle(base, active) -> Optional[list[int]]:
    """The vertices of the induced subgraph on active in walk order when it
    is one cycle of length >= 4 through all of it, else None.

    The walk leaves each vertex by the neighbour it did not come from and
    stops at a vertex without exactly two neighbours in active.  Every
    vertex it passes has two, so the first vertex it reaches again is its
    start."""
    size = len(active)
    if size < 4:
        return None
    nbrs = base.neighbors
    start = next(iter(active))
    ring = [start]
    prev, v = None, start
    while True:
        around = nbrs[v] & active
        if len(around) != 2:
            return None
        a, b = around
        prev, v = v, (b if a == prev else a)
        if v == start:
            return ring if len(ring) == size else None
        ring.append(v)


def _dominating(base, active) -> bool:
    size = len(active)
    return any(len(base.neighbors[v] & active) == size - 1 for v in active)


def _order(base, active) -> list[int]:
    """The vertices by degree in the induced subgraph, then by number: the
    order in which a peel tries to delete them."""
    return sorted(active, key=lambda v: (len(base.neighbors[v] & active), v))


# -- contractibility ---------------------------------------------------------


def _removable(base, sphere, budget) -> bool:
    # a contractible S(x) is nonempty and connected, so G-x stays connected
    return bool(sphere) and _connected(base, sphere) and _contractible(base, sphere, budget)


def _removals(base, active, budget, after):
    """active - {x} for each x after `after` in _order whose unit sphere S(x)
    is contractible: the rest of a walked set's removals."""
    order = _order(base, active)
    for x in order[order.index(after) + 1:]:
        if _removable(base, base.neighbors[x] & active, budget):
            yield active - {x}


def _walk(base, active, budget, path) -> bool:
    """The search's first branch from the entered set active, as the module
    docstring describes it; True when a removal reaches a cone or a set
    memoized True.  Each set the walk leaves goes on path with the rest of
    its removals, and the last set with none."""
    nbrs, memo = base.neighbors, budget.memo
    degree = {v: len(nbrs[v] & active) for v in active}
    count = [0] * len(active)  # vertices per degree; none has len(active) - 1
    for k in degree.values():
        count[k] += 1
    heap = [(k, v) for v, k in degree.items()]
    heapify(heap)
    skipped = []
    path.append((active, iter(())))
    while heap:
        k, x = heappop(heap)
        if degree.get(x) != k:
            continue  # x is gone, or lost a neighbour and has a later entry
        sphere = nbrs[x] & active
        if not _removable(base, sphere, budget):
            continue
        cone = len(active) - 2  # the degree of a cone point of active - {x}
        if count[cone] - (k == cone) - sum(degree[y] == cone for y in sphere):
            return True
        rest = active - {x}
        if rest in memo:
            if memo[rest]:
                return True
            skipped.append(x)
            continue
        budget.spend()
        path[-1] = (active, _removals(base, active, budget, x))
        path.append((rest, iter(())))
        active = rest
        del degree[x]
        count[k] -= 1
        for y in sphere:
            count[degree[y]] -= 1
            degree[y] -= 1
            count[degree[y]] += 1
            heappush(heap, (degree[y], y))
        for y in skipped:
            if y not in sphere:
                heappush(heap, (degree[y], y))
        skipped = []
    return False


def _peel(base, starts, budget) -> bool:
    """Whether some vertex set from starts reaches a point by removals.

    A depth-first search whose path is a list of (vertex set, iterator of its
    removals), so Python's stack does not grow with the number of vertices;
    _walk takes the first branch from each set the loop enters.  Each set
    entered spends one expansion; a set whose removals all fail is memoized
    False, and on success every set on the path is memoized True."""
    path = [(None, starts)]
    memo = budget.memo
    while path:
        nxt = next(path[-1][1], None)
        if nxt is None:
            active, _ = path.pop()
            if path:
                memo[active] = False
        elif nxt in memo:  # a set memoized False was entered, so it is no cone
            if memo[nxt]:
                break
        elif _dominating(base, nxt):
            break
        else:
            budget.spend()
            if _walk(base, nxt, budget, path):
                break
    else:
        return False
    memo.update((active, True) for active, _ in path[1:])
    return True


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
    if n == 0:  # only the (-1)-sphere is empty
        return None if d == -1 else "graph is empty"
    if d < 0:
        return "graph is nonempty"
    # the d = 0 and d = 1 base rules; a witness is looked for only when they fail
    if d == 0 and n == 2:
        a, b = active
        if b not in base.neighbors[a]:
            return None
    elif d == 1 and _cycle(base, active) is not None:
        return None
    if d >= 1 and not _connected(base, active):
        return "graph is disconnected"
    if n == base.n:
        chi, sphere_chi = euler_characteristic(base), 1 + (-1) ** d
        if chi != sphere_chi:
            return f"Euler characteristic {chi}, a {d}-sphere has {sphere_chi}"
    if d >= 3 and (active, d) in budget.memo:
        return budget.memo[active, d]
    if d >= 2:
        budget.spend()
    witness = _bad_link(base, active, d, budget)
    # only whole graphs reach d = 2, so a closed surface here has passed chi = 2
    if witness is None and d != 2 and (d < 2 or not _peel(
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
    nbrs = base.neighbors
    twice_edges = dict.fromkeys(active, 0)  # sum of |link(xy)|: 2 E(S(x)) on x's turn
    for x in sorted(active):
        sphere = nbrs[x] & active
        if not sphere or not _connected(base, sphere):
            return x
        budget.spend()
        for y in sphere:
            if y > x:
                link = sphere & nbrs[y]
                if len(link) < 4:
                    return x
                if len(link) >= 8:  # two cycles of length >= 4 fit: walk it
                    if _cycle(base, link) is None:
                        return x
                else:
                    for z in link:
                        if z > y:
                            pair = link & nbrs[z]  # the link of the triangle xyz
                            if len(pair) != 2:
                                return x
                            a, b = pair
                            if b in nbrs[a]:
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
