"""Deterministic graph canonization and isomorphism checks.

canonical_form relabels a graph by iterated color refinement with
individualization on ties and returns the lexicographically least edge
encoding, so two graphs are isomorphic exactly when their forms agree.
Exponential in the worst case; intended for small graphs.
"""

from __future__ import annotations

from .core import SimplicialGraph


def _refine(n, adj, colors):
    while True:
        sigs = [(colors[v], tuple(sorted(colors[u] for u in adj[v]))) for v in range(n)]
        ranking = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [ranking[s] for s in sigs]
        if new == colors:
            return colors
        colors = new


def _encode(n, adj, colors):
    # colors are discrete here: they already define the canonical relabeling
    pos = [0] * n
    for v in range(n):
        pos[v] = colors[v]
    edges = sorted(
        (min(pos[u], pos[v]), max(pos[u], pos[v]))
        for u in range(n) for v in adj[u] if u < v
    )
    return tuple(edges)


def canonical_form(g: SimplicialGraph) -> tuple:
    """Canonical encoding (n, edge tuple); equal exactly for isomorphic graphs."""
    n = g.n
    adj = [sorted(s) for s in g.neighbors]
    if n == 0:
        return (0, ())
    best = None

    def search(colors):
        nonlocal best
        colors = _refine(n, adj, colors)
        ncolors = len(set(colors))
        if ncolors == n:
            enc = _encode(n, adj, colors)
            if best is None or enc < best:
                best = enc
            return
        # split the lowest non-singleton color class, trying each member
        counts = {}
        for c in colors:
            counts[c] = counts.get(c, 0) + 1
        target = min(c for c, k in counts.items() if k > 1)
        for v in range(n):
            if colors[v] == target:
                branched = list(colors)
                branched[v] = n  # fresh color, normalized by the next refinement
                search(branched)

    search([0] * n)
    return (n, best)


def are_isomorphic(a: SimplicialGraph, b: SimplicialGraph) -> bool:
    """Isomorphism test: cheap invariants, then canonical forms."""
    if a.n != b.n or a.edge_count() != b.edge_count():
        return False
    if sorted(map(a.degree, range(a.n))) != sorted(map(b.degree, range(b.n))):
        return False
    return canonical_form(a) == canonical_form(b)
