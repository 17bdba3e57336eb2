"""Recursive recognition of contractible graphs, spheres and d-graphs.

The definitions are mutually recursive.  A graph is contractible when some
vertex x has a contractible unit sphere S(x) and a contractible complement
G-x, with the one-point graph as base case.  A d-sphere is a graph whose
unit spheres are all (d-1)-spheres and which loses contractibility .. gains
it .. after deleting a single vertex; the empty graph is the (-1)-sphere.
A d-graph only requires every unit sphere to be a (d-1)-sphere.

Searches carry an expansion budget.  When it runs out the caller receives
the verdict "resource_limit" instead of a guess.  Definitive verdicts are
memoized globally in one tier, keyed by the exact relabeled edge list, so
the memo only short-circuits repeats of the same labeled graph.

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
from dataclasses import dataclass
from typing import Optional

from .core import SimplicialGraph, euler_characteristic

DEFAULT_BUDGET = 10 ** 6

if sys.getrecursionlimit() < 20000:
    sys.setrecursionlimit(20000)

_contractible_memo: dict = {}
_sphere_memo: dict = {}


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
    remaining: int
    used: int = 0

    def spend(self):
        if self.remaining <= 0:
            raise _Exhausted
        self.remaining -= 1
        self.used += 1


def clear_caches():
    _contractible_memo.clear()
    _sphere_memo.clear()


# -- subgraph views ---------------------------------------------------------


def _exact_key(base, active):
    """(n, edges) of the induced subgraph relabeled to 0..n-1 in vertex order."""
    index = {v: i for i, v in enumerate(sorted(active))}
    edges = tuple((i, j) for v, i in index.items()
                  for j in sorted(index[u] for u in base.neighbors[v] if u in active) if j > i)
    return len(index), edges


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
    key = _exact_key(base, active)
    hit = _contractible_memo.get(key)
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
    _contractible_memo[key] = result
    return result


def is_contractible(g: SimplicialGraph, budget: Optional[int] = None) -> VerificationReport:
    b = _Budget(DEFAULT_BUDGET if budget is None else budget)
    active = frozenset(range(g.n))
    try:
        ok = (euler_characteristic(g) == 1 and _connected(g, active)
              and _contractible(g, active, b))
    except _Exhausted:
        return VerificationReport("resource_limit", witness="expansion budget exhausted",
                                  expansions=b.used)
    if ok:
        return VerificationReport("yes", dimension=g.dimension(), expansions=b.used)
    witness = "empty graph" if g.n == 0 else "no vertex removal sequence reaches a point"
    return VerificationReport("no", witness=witness, expansions=b.used)


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
    key = _exact_key(base, active)
    hit = _sphere_memo.get((key, d))
    if hit is not None:
        return hit
    budget.spend()
    result = True
    for x in sorted(active):
        if not _sphere(base, base.neighbors[x] & active, d - 1, budget):
            result = False
            break
    if result:  # G and every S(x) are connected, so every G-x is connected
        order = sorted(active, key=lambda v: (len(base.neighbors[v] & active), v))
        result = any(_contractible(base, active - {x}, budget) for x in order)
    _sphere_memo[(key, d)] = result
    return result


def is_sphere(g: SimplicialGraph, d: int, budget: Optional[int] = None) -> VerificationReport:
    b = _Budget(DEFAULT_BUDGET if budget is None else budget)
    active = frozenset(range(g.n))
    try:
        ok = euler_characteristic(g) == 1 + (-1) ** d and _sphere(g, active, d, b)
    except _Exhausted:
        return VerificationReport("resource_limit", witness="expansion budget exhausted",
                                  expansions=b.used)
    if ok:
        return VerificationReport("yes", dimension=d, expansions=b.used)
    return VerificationReport("no", witness=_sphere_witness(g, d, b), expansions=b.used)


def _sphere_witness(g, d, budget):
    if d == -1:
        return "graph is nonempty"
    if g.n == 0:
        return "graph is empty"
    if d >= 1 and not _connected(g, frozenset(range(g.n))):
        return "graph is disconnected"
    try:
        for x in range(g.n):
            if not _sphere(g, g.neighbors[x], d - 1, budget):
                return x
    except _Exhausted:
        pass
    return "no vertex deletion leaves a contractible graph"


# -- d-graphs ------------------------------------------------------------------


def is_dgraph(g: SimplicialGraph, d: int, budget: Optional[int] = None) -> VerificationReport:
    """Check that every unit sphere is a (d-1)-sphere.

    The empty graph passes vacuously for every d >= 0, which lets level set
    code state "empty or a (d-1)-graph" as a single verdict.
    """
    b = _Budget(DEFAULT_BUDGET if budget is None else budget)
    if d < 0:
        if g.n == 0:
            return VerificationReport("yes", dimension=d)
        return VerificationReport("no", witness="graph is nonempty")
    if d == 0:
        for u, v in g.edges():
            return VerificationReport("no", witness=(u, v), expansions=b.used)
        return VerificationReport("yes", dimension=0, expansions=b.used)
    if d == 1:
        for x in range(g.n):
            if g.degree(x) != 2:
                return VerificationReport("no", witness=x, expansions=b.used)
        for comp in components(g):
            if len(comp) < 4:
                return VerificationReport("no", witness=comp[0], expansions=b.used)
        return VerificationReport("yes", dimension=1, expansions=b.used)
    try:
        for x in range(g.n):
            if not _sphere(g, g.neighbors[x], d - 1, b):
                return VerificationReport("no", witness=x, expansions=b.used)
    except _Exhausted:
        return VerificationReport("resource_limit", witness="expansion budget exhausted",
                                  expansions=b.used)
    return VerificationReport("yes", dimension=d, expansions=b.used)


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
