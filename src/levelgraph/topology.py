"""Recursive recognition of contractible graphs, spheres and d-graphs.

The definitions are mutually recursive.  A graph is contractible when some
vertex x has a contractible unit sphere S(x) and a contractible complement
G-x, with the one-point graph as base case.  A d-sphere is a graph whose
unit spheres are all (d-1)-spheres and which loses contractibility .. gains
it .. after deleting a single vertex; the empty graph is the (-1)-sphere.
A d-graph only requires every unit sphere to be a (d-1)-sphere.

Each public call runs one search with its own state: the expansion budget
and a memo of definitive verdicts.  Every subgraph a search visits is
induced from the graph it was called on, so its vertex set identifies it:
contractibility verdicts are keyed by the vertex set, sphere verdicts by
the vertex set and the dimension.  The memo is dropped when the call
returns, so a verdict depends only on the graph, the dimension and the
budget, and nothing is kept between calls.  When the budget runs out the
caller receives the verdict "resource_limit" instead of a guess.

Theorem-backed shortcuts prune the search without changing its answer:

- Graphs with a dominating vertex (cones) are contractible.
- Contractible graphs and spheres of dimension >= 1 are connected.  The
  contractibility search expects connected input and checks each S(x) it
  recurses into; G-x needs no check, since a contractible S(x) is nonempty
  and connected.
- The public entry points reject on the Euler characteristic.  Deleting x
  splits the clique complex into that of G-x and the cone over S(x), so
  chi(G) = chi(G-x) + 1 - chi(S(x)); by induction a contractible graph has
  chi = 1 and a d-sphere has chi = 1 + (-1)^d.
- 2-spheres are decided without a search, for one expansion: a connected
  graph whose unit spheres are all circles (cycles of length >= 4) is a
  closed surface, and by the classification of closed surfaces it is a
  2-sphere iff chi = 2.  Each edge then lies in exactly two triangles, so
  chi = V - E/3.  No memo entry is stored for it.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Optional

from .core import SimplicialGraph, euler_characteristic

DEFAULT_BUDGET = 10 ** 6

if sys.getrecursionlimit() < 20000:
    sys.setrecursionlimit(20000)


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


def _connected(base, active) -> bool:
    if not active:
        return True
    start = next(iter(active))
    seen = {start}
    stack = [start]
    while stack:
        new = (base.neighbors[stack.pop()] & active) - seen
        seen |= new
        stack.extend(new)
    return len(seen) == len(active)


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


# -- contractibility ---------------------------------------------------------


def _contractible(base, active, budget) -> bool:
    """Contractibility of a connected induced subgraph."""
    n = len(active)
    if n == 0:
        return False
    if n == 1:
        return True
    if _dominating(base, active):
        return True
    hit = budget.memo.get(active)
    if hit is not None:
        return hit
    budget.spend()
    result = False
    order = sorted(active, key=lambda v: (len(base.neighbors[v] & active), v))
    for x in order:
        sphere = base.neighbors[x] & active
        # a contractible S(x) is nonempty and connected, so G-x stays connected
        if (_connected(base, sphere) and _contractible(base, sphere, budget)
                and _contractible(base, active - {x}, budget)):
            result = True
            break
    budget.memo[active] = result
    return result


def is_contractible(g: SimplicialGraph, budget: Optional[int] = None) -> VerificationReport:
    def decide(search):
        active = frozenset(range(g.n))
        if g.n == 0:
            return VerificationReport("no", witness="empty graph")
        if not _connected(g, active):
            return VerificationReport("no", witness="graph is disconnected")
        chi = euler_characteristic(g)
        if chi != 1:
            return VerificationReport(
                "no", witness=f"Euler characteristic {chi}, a contractible graph has 1")
        if _contractible(g, active, search):
            return VerificationReport("yes", dimension=g.dimension())
        return VerificationReport("no", witness="no vertex removal sequence reaches a point")
    return _verify(decide, budget)


# -- spheres ------------------------------------------------------------------


def _sphere(base, active, d, budget) -> bool:
    n = len(active)
    if d == -1:
        return n == 0
    if n == 0:
        return False
    if d == 0:
        if n != 2:
            return False
        a, b = sorted(active)
        return b not in base.neighbors[a]
    if d == 1:
        return n >= 4 and _circle(base, active)
    if not _connected(base, active):
        return False
    if d == 2:  # a connected closed surface is a 2-sphere iff chi = 2
        budget.spend()
        twice_edges = 0
        for v in active:
            link = base.neighbors[v] & active
            if not _sphere(base, link, 1, budget):
                return False
            twice_edges += len(link)
        return n - twice_edges // 6 == 2
    hit = budget.memo.get((active, d))
    if hit is not None:
        return hit
    budget.spend()
    result = _bad_link(base, active, d, budget) is None and _peels(base, active, budget)
    budget.memo[active, d] = result
    return result


def _bad_link(base, active, d, budget) -> Optional[int]:
    """The least vertex whose unit sphere is not a (d-1)-sphere, or None."""
    for x in sorted(active):
        if not _sphere(base, base.neighbors[x] & active, d - 1, budget):
            return x
    return None


def _peels(base, active, budget) -> bool:
    """Whether some G-x is contractible, for G and every S(x) connected (then
    every G-x is connected)."""
    order = sorted(active, key=lambda v: (len(base.neighbors[v] & active), v))
    return any(_contractible(base, active - {x}, budget) for x in order)


def is_sphere(g: SimplicialGraph, d: int, budget: Optional[int] = None) -> VerificationReport:
    def decide(search):
        witness = _sphere_defect(g, d, search)
        if witness is None:
            return VerificationReport("yes", dimension=d)
        return VerificationReport("no", witness=witness)
    return _verify(decide, budget)


def _sphere_defect(g, d, search):
    """Why g is not a d-sphere, or None when it is one.

    The checks of _sphere on the whole graph, cheapest first, so the search
    that decides also names the witness: the first vertex whose unit sphere
    is not a (d-1)-sphere, or the check that failed."""
    active = frozenset(range(g.n))
    if d == -1:
        return "graph is nonempty" if g.n else None
    if g.n == 0:
        return "graph is empty"
    if d >= 1 and not _connected(g, active):
        return "graph is disconnected"
    chi, sphere_chi = euler_characteristic(g), 1 + (-1) ** d
    if chi != sphere_chi:
        return f"Euler characteristic {chi}, a {d}-sphere has {sphere_chi}"
    if d >= 2:  # one expansion, as _sphere spends; d = 2 then needs only the links
        search.spend()
    x = _bad_link(g, active, d, search)
    if x is not None:
        return x
    if d >= 3 and not _peels(g, active, search):
        return "no vertex deletion leaves a contractible graph"
    return None


# -- d-graphs ------------------------------------------------------------------


def is_dgraph(g: SimplicialGraph, d: int, budget: Optional[int] = None) -> VerificationReport:
    """Check that every unit sphere is a (d-1)-sphere.

    The empty graph passes vacuously for every d, which lets level set code
    state "empty or a (d-1)-graph" as a single verdict.  For d = 0 and d = 1
    the sphere base cases decide each unit sphere without an expansion.
    """
    def decide(search):
        if d < 0 and g.n:
            return VerificationReport("no", witness="graph is nonempty")
        x = _bad_link(g, frozenset(range(g.n)), d, search)
        if x is not None:
            return VerificationReport("no", witness=x)
        return VerificationReport("yes", dimension=d)
    return _verify(decide, budget)


def components(g: SimplicialGraph) -> list[tuple[int, ...]]:
    """Connected components as sorted vertex tuples, ordered by least vertex."""
    seen = [False] * g.n
    out = []
    for v in range(g.n):
        if seen[v]:
            continue
        comp = []
        stack = [v]
        seen[v] = True
        while stack:
            w = stack.pop()
            comp.append(w)
            for u in g.neighbors[w]:
                if not seen[u]:
                    seen[u] = True
                    stack.append(u)
        out.append(tuple(sorted(comp)))
    return out
