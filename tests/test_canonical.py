"""Canonical forms and isomorphism testing.

Validates:
    - canonical form is invariant under relabeling
    - non-isomorphic graphs with equal degree sequences are separated
    - agreement with a permutation-scan oracle on small graphs
"""

import random
from itertools import combinations, permutations

from levelgraph.canonical import are_isomorphic, canonical_form
from levelgraph.core import SimplicialGraph
from levelgraph.catalog import cycle, octahedron


def brute_force_isomorphic(a, b):
    """Permutation scan; independent oracle for the tests, keep n small."""
    if a.n != b.n or a.edge_count() != b.edge_count():
        return False
    ea = {tuple(sorted(e)) for e in a.edges()}
    for perm in permutations(range(b.n)):
        if ea == {tuple(sorted((perm[u], perm[v]))) for u, v in b.edges()}:
            return True
    return False


def shuffled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in g.edges()]
    return SimplicialGraph(g.n, edges)


def test_relabeling_invariance():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(2, 9)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
        g = SimplicialGraph(n, edges)
        h = shuffled(g, rng)
        assert canonical_form(g) == canonical_form(h)
        assert are_isomorphic(g, h)


def test_distinguishes_same_degree_sequence():
    # C6 vs two triangles: both 2-regular on 6 vertices.
    c6 = cycle(6)
    two = SimplicialGraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert canonical_form(c6) != canonical_form(two)
    assert not are_isomorphic(c6, two)


def test_distinguishes_by_edge_count():
    a = SimplicialGraph(4, [(0, 1), (1, 2)])
    b = SimplicialGraph(4, [(0, 1), (1, 2), (2, 3)])
    assert not are_isomorphic(a, b)


def test_agrees_with_permutation_scan():
    rng = random.Random(17)
    pairs = 0
    while pairs < 30:
        n = rng.randint(2, 6)
        ea = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
        eb = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
        a, b = SimplicialGraph(n, ea), SimplicialGraph(n, eb)
        assert are_isomorphic(a, b) == brute_force_isomorphic(a, b)
        pairs += 1


def test_octahedron_relabelings_collapse():
    rng = random.Random(23)
    forms = {canonical_form(shuffled(octahedron(), rng)) for _ in range(10)}
    assert len(forms) == 1
