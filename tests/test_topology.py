"""Recursive dimension, sphere, and contractibility verification.

Validates:
    - cross polytopes of each dimension verify as spheres
    - icosahedron is a 2-sphere, its join with S0 a 3-sphere
    - negative cases: wheel (disk), solid grid, disjoint circles, figure eight
    - contractibility of cones and paths, non-contractibility of cycles
    - budget exhaustion surfaces as a resource_limit verdict
    - the Euler characteristic entry check and the 2-sphere rule agree with
      a definitional oracle; tori and annuli are rejected without a search
    - one expansion per decided 2-sphere
    - below d = -1 every graph is rejected by its vertex count alone
    - the d = 3 pass keeps every verdict, witness and expansion count, and
      every budget threshold; reading triangle links and walking only the
      edge links of 8 or more vertices agrees with walking every edge link
    - whole graphs at d = 2 and 3 run the link pass before counting chi and
      keep every report of counting it first, at every budget; a "yes"
      counts no chi, and a pass that names a witness counts it once
    - a verdict depends only on the graph, the dimension and the budget, not
      on earlier calls
    - only is_sphere for d >= 2, is_dgraph for d >= 3 and is_contractible
      spend expansions
    - importing the package leaves the recursion limit alone, and the
      removal search runs far deeper than the Python stack it is given
    - the worklist peel makes the spends and memo writes of the depth-first
      search it replaces, and large spheres keep their reports
"""

import json
import os
import random
import subprocess
import sys
from itertools import combinations

import pytest

from levelgraph.core import SimplicialGraph, disjoint_union, euler_characteristic, join
from levelgraph.catalog import (cross_polytope, cycle, icosahedron, kuhn_grid,
                                octahedron, random_sphere, sixteen_cell, suspension, wheel)
from levelgraph.refine import barycentric
from levelgraph import topology
from levelgraph.topology import components, is_contractible, is_dgraph, is_sphere


def test_components():
    g = disjoint_union(cycle(3), cycle(4))
    assert components(g) == [(0, 1, 2), (3, 4, 5, 6)]
    assert components(SimplicialGraph(0, [])) == []


def test_cross_polytopes_are_spheres():
    for d in range(4):
        r = is_sphere(cross_polytope(d), d)
        assert r.ok, f"cross polytope dim {d}: {r.verdict}"
        assert r.verdict == "yes"


def test_icosahedron_is_2_sphere():
    assert is_sphere(icosahedron(), 2).ok


def test_join_with_s0_raises_dimension():
    s0 = cross_polytope(0)
    assert is_sphere(join(s0, icosahedron()), 3).ok


def test_random_spheres_verify():
    for seed in (1, 2, 3):
        g = random_sphere(seed, 1)
        assert is_sphere(g, 2).ok


def test_wheel_is_dgraph_with_boundary_rejected():
    # hub's unit sphere is a circle but rim spheres are paths
    r = is_dgraph(wheel(6), 2)
    assert r.verdict == "no"
    assert r.witness is not None


def test_solid_grid_not_a_surface():
    g = kuhn_grid(2, (2, 2))
    assert not is_dgraph(g, 2).ok


def test_disjoint_circles_not_a_sphere():
    g = disjoint_union(cycle(4), cycle(4))
    r = is_sphere(g, 1)
    assert r.verdict == "no"


def test_figure_eight_not_a_dgraph():
    # two cycles sharing vertex 0: its unit sphere is four isolated points
    edges = [(0, 1), (1, 2), (2, 0)]
    edges += [(0, 3), (3, 4), (4, 0)]
    g = SimplicialGraph(5, edges)
    assert not is_dgraph(g, 1).ok


def test_circle_is_1_sphere_iff_long_enough():
    assert is_sphere(cycle(4), 1).ok
    assert is_sphere(cycle(12), 1).ok
    assert not is_dgraph(cycle(3), 1).ok  # unit spheres fine but contractible


def test_contractible_cases():
    assert is_contractible(SimplicialGraph(1, [])).ok
    path = SimplicialGraph(4, [(0, 1), (1, 2), (2, 3)])
    assert is_contractible(path).ok
    assert is_contractible(wheel(6)).ok


def test_cycle_not_contractible():
    assert not is_contractible(cycle(5)).ok


def test_empty_graph_dimension():
    r = is_dgraph(SimplicialGraph(0, []), -1)
    assert r.ok


@pytest.mark.parametrize("d", [-2, -3, -4])
@pytest.mark.parametrize("g", [SimplicialGraph(0, []), SimplicialGraph(1, []), cycle(4),
                               octahedron()], ids=["empty", "point", "C4", "octahedron"])
def test_no_sphere_below_dimension_minus_one(g, d):
    """Only the (-1)-sphere is empty, and no sphere has a negative dimension
    below it: the verdict names the vertex count, with no chi target."""
    r = is_sphere(g, d)
    assert (r.verdict, r.witness, r.expansions) == (
        "no", "graph is nonempty" if g.n else "graph is empty", 0)
    assert is_dgraph(g, d).witness == ("graph is nonempty" if g.n else None)


def test_budget_zero_gives_resource_limit():
    r = is_sphere(icosahedron(), 2, budget=0)
    assert r.verdict == "resource_limit"


def test_budget_large_enough_succeeds():
    r = is_sphere(octahedron(), 2, budget=10**6)
    assert r.ok
    assert r.expansions > 0


def flag_rp2():
    """Barycentric refinement of the 6-vertex RP^2, a flag 2-graph with chi = 1."""
    facets = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
              (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5)]
    faces = sorted({f for t in facets for k in (1, 2, 3) for f in combinations(t, k)})
    index = {f: i for i, f in enumerate(faces)}
    edges = [(index[a], index[b]) for a in faces for b in faces
             if len(a) < len(b) and set(a) <= set(b)]
    return SimplicialGraph(len(faces), edges)


def annulus(k):
    """Strip between two k-cycles a_i = i and b_i = k + i; chi = 0."""
    edges = []
    for i in range(k):
        j = (i + 1) % k
        edges += [(i, j), (k + i, k + j), (i, k + i), (i, k + j)]
    return SimplicialGraph(2 * k, edges)


def test_flag_rp2_fixture():
    g = flag_rp2()
    assert g.f_vector() == (31, 90, 60)
    assert is_dgraph(g, 2).ok


def rp2_with_strip():
    """flag_rp2 with a strip of 12 triangles glued on its edge (0, 1); chi = 1.

    Not contractible, but every vertex of the strip can be peeled, so a search
    without a memo meets the same subgraphs of flag_rp2 again and again."""
    g = flag_rp2()
    a = [0] + [g.n + i for i in range(6)]
    b = [1] + [g.n + 6 + i for i in range(6)]
    edges = g.edges()
    for i in range(6):
        edges += [(a[i], a[i + 1]), (b[i], b[i + 1]), (a[i + 1], b[i]), (a[i + 1], b[i + 1])]
    return SimplicialGraph(g.n + 12, edges)


def banana():
    """Two octahedra glued at one antipodal pair: connected, chi = 2, but the
    two glued vertices have a pair of disjoint 4-cycles as unit sphere."""
    edges = [(u, v) for u in range(6) for v in range(u + 1, 6) if u + v != 5]
    second = {0: 0, 5: 5, 1: 6, 2: 7, 3: 8, 4: 9}
    edges += [(second[u], second[v]) for u, v in edges]
    return SimplicialGraph(10, edges)


# -- definitional oracle --------------------------------------------------------
# The recursive definitions from the topology module docstring, verbatim: no
# Euler characteristic, no connectivity or cone shortcut, no 2-sphere rule and
# no memo.  It spends its own budget and says None when that runs out.

ORACLE_BUDGET = 50_000


class _OracleExhausted(Exception):
    pass


class _OracleBudget:
    def __init__(self):
        self.left = ORACLE_BUDGET

    def spend(self):
        if self.left <= 0:
            raise _OracleExhausted
        self.left -= 1


def _knill_contractible(g, active, budget):
    if len(active) <= 1:
        return len(active) == 1
    budget.spend()
    return any(_knill_contractible(g, g.neighbors[x] & active, budget)
               and _knill_contractible(g, active - {x}, budget) for x in sorted(active))


def _knill_sphere(g, active, d, budget):
    if d == -1:
        return not active
    budget.spend()
    return (all(_knill_sphere(g, g.neighbors[x] & active, d - 1, budget) for x in sorted(active))
            and any(_knill_contractible(g, active - {x}, budget) for x in sorted(active)))


def _knill_dgraph_witness(g, d, budget):
    """The first vertex whose unit sphere is not a (d-1)-sphere, or None."""
    return next((x for x in range(g.n) if not _knill_sphere(g, g.neighbors[x], d - 1, budget)),
                None)


def _oracle(check, g, *args):
    """The definitional report of check(g, *args) as (verdict, witness), where
    only is_dgraph's witness is compared; None when the oracle's budget runs out."""
    every = frozenset(range(g.n))
    try:
        if check is is_dgraph:
            witness = _knill_dgraph_witness(g, *args, _OracleBudget())
            return ("yes", None) if witness is None else ("no", witness)
        if check is is_sphere:
            ok = _knill_sphere(g, every, *args, _OracleBudget())
        else:
            ok = _knill_contractible(g, every, _OracleBudget())
    except _OracleExhausted:
        return None
    return ("yes" if ok else "no"), None


def _report(check, g, *args):
    r = check(g, *args)
    return r.verdict, (r.witness if check is is_dgraph else None)


def _differential_cases():
    base = [(octahedron(), 2), (icosahedron(), 2), (sixteen_cell(), 3)]
    base += [(random_sphere(seed, 12), 2) for seed in (4, 5, 6)]
    spheres = [(cross_polytope(d), d) for d in range(5)] + base
    spheres += [(suspension(g), d + 1) for g, d in base]
    spheres += [(barycentric(g).graph, d) for g, d in [(cycle(4), 1)] + base[:4]]
    others = [wheel(n) for n in (5, 6, 9)]
    others += [kuhn_grid(1, (3,)), kuhn_grid(2, (3, 2)), kuhn_grid(3, (2, 2, 1)), flag_rp2()]
    for g, d in spheres:
        yield g, d
        yield g.induced(range(1, g.n)), d  # a ball: contractible, not a sphere
    for g in others:
        yield g, g.dimension()


def test_euler_entry_check_agrees_with_bare_recursion():
    decided = 0
    for g, d in _differential_cases():
        for check, args in ((is_sphere, (d,)), (is_contractible, ())):
            want = _oracle(check, g, *args)
            if want is not None:
                decided += 1
                assert _report(check, g, *args) == want, (check.__name__, g.n, d, want)
    assert decided >= 100


def test_low_dimensional_dgraphs_agree_with_definition():
    cases = [g for g, _ in _differential_cases()] + _two_sphere_cases()
    cases += [disjoint_union(cycle(3), wheel(5)), disjoint_union(cycle(4), cycle(3)),
              cross_polytope(0), SimplicialGraph(3, [])]
    decided = 0
    for g in cases:
        for d in (0, 1):
            want = _oracle(is_dgraph, g, d)
            if want is not None:
                decided += 1
                assert _report(is_dgraph, g, d) == want, (g.n, d, want)
    assert decided >= 100


def _two_sphere_cases():
    torus = kuhn_grid(2, (4, 4), periodic=True)
    return [suspension(torus), suspension(flag_rp2()), banana(), suspension(banana()),
            disjoint_union(octahedron(), torus)]


def test_two_sphere_rule_agrees_with_definition():
    decided = 0
    for g in [g for g, _ in _differential_cases()] + _two_sphere_cases():
        for check, d in ((is_sphere, 2), (is_sphere, 3), (is_dgraph, 3)):
            want = _oracle(check, g, d)
            if want is not None:
                decided += 1
                assert _report(check, g, d) == want, (check.__name__, g.n, d, want)
    assert decided >= 160


def test_two_sphere_rule_rejects_each_near_miss():
    torus = kuhn_grid(2, (4, 4), periodic=True)
    cases = [
        # apex sphere: connected, every unit sphere a circle, chi = 0 / chi = 1
        (is_dgraph, suspension(torus), 3, 0),
        (is_dgraph, suspension(flag_rp2()), 3, 0),
        # connected, chi = 2, but vertex 0 has two disjoint circles as unit sphere
        (is_sphere, banana(), 2, 0),
        (is_dgraph, suspension(banana()), 3, 0),
        # every unit sphere a circle and chi = 2, but disconnected
        (is_sphere, disjoint_union(octahedron(), torus), 2, "graph is disconnected"),
    ]
    for check, g, d, witness in cases:
        r = check(g, d)
        assert (r.verdict, r.witness) == ("no", witness), (check.__name__, g.n, d)


def test_sphere_witness_is_the_vertex_the_decision_found():
    # the decision stops at vertex 0, whose unit sphere (two 4-cycles joined
    # by two apexes) fails the 2-sphere rule: one expansion for the graph,
    # one for that unit sphere, and no second pass to name the witness
    g = suspension(banana())
    assert is_sphere(g, 3, budget=2) == is_sphere(g, 3)
    r = is_sphere(g, 3)
    assert (r.verdict, r.witness, r.expansions) == ("no", 0, 2)
    assert is_sphere(g, 3, budget=1).verdict == "resource_limit"


def test_one_expansion_per_two_sphere():
    assert is_sphere(icosahedron(), 2).expansions == 1
    assert is_dgraph(sixteen_cell(), 3).expansions == 8
    assert is_sphere(sixteen_cell(), 3).expansions == 9
    assert is_dgraph(sixteen_cell(), 3, budget=7).verdict == "resource_limit"


def sixteen_cells_at_a_point(glued):
    """Two 16-cells sharing one vertex, numbered glued: its unit sphere is two
    disjoint octahedra, and every other unit sphere is an octahedron."""
    edges = [(u, v) for u in range(8) for v in range(u + 1, 8) if u + v != 7]
    second = {0: 0, **{v: 7 + v for v in range(1, 8)}}
    edges += [(second[u], second[v]) for u, v in edges]
    swap = {0: glued, glued: 0}
    return SimplicialGraph(15, [(swap.get(u, u), swap.get(v, v)) for u, v in edges])


def octahedra_glued_at_poles():
    """Two octahedra sharing the two antipodal vertices 0 and 5: connected,
    chi = 2, every unit sphere a circle except at 0 and 5, where it is two
    4-cycles.  In its suspension the edge from an apex to vertex 0 or 5 has
    those two 4-cycles as its link: each triangle's link is two non-adjacent
    vertices, and only a walk tells the link from one 8-cycle."""
    first = octahedron().edges()
    second = {0: 0, 5: 5, **{v: 5 + v for v in range(1, 5)}}
    return SimplicialGraph(10, first + [(second[u], second[v]) for u, v in first])


def capped_antiprisms_on_a_k4():
    """The cone with apex 0 over two 2-spheres joined by a K4 on their caps.

    Each 2-sphere is a square antiprism capped at both ends (caps of degree
    4 at distance 3; the other vertices have degree 5), and the K4 joins the
    four caps.  A cap's unit sphere in the base is its 4-cycle and the
    triangle of the other caps: 7 vertices, each with two neighbours in it,
    so each triangle there has two adjacent vertices as its link.  Every
    other unit sphere of the base is a 4- or 5-cycle, and the base has
    V - E/3 = 20 - 54/3 = 2, so S(0) fails no other check."""
    edges = []
    for top in (1, 11):
        r, s = [top + 1 + i for i in range(4)], [top + 5 + i for i in range(4)]
        for i in range(4):
            edges += [(top, r[i]), (r[i], r[i - 1]), (r[i], s[i]), (r[i], s[(i + 1) % 4]),
                      (s[i], s[i - 1]), (s[i], top + 9)]
    caps = (1, 10, 11, 20)
    edges += [(u, v) for u in caps for v in caps if u < v]
    return SimplicialGraph(21, edges + [(0, v) for v in range(1, 21)])


def test_three_dimensional_link_pass_keeps_every_report():
    # the verdicts, witnesses and expansions of one 2-sphere decision per
    # unit sphere; the d = 4 cases decide S(x) as 3-spheres inside a subset
    cases = [
        (is_dgraph, kuhn_grid(3, (4, 4, 4), periodic=True), 3, "yes", None, 64),
        (is_dgraph, barycentric(sixteen_cell()).graph, 3, "yes", None, 80),
        (is_dgraph, suspension(kuhn_grid(2, (4, 4), periodic=True)), 3, "no", 0, 1),
        (is_dgraph, cross_polytope(4), 3, "no", 0, 1),  # edge links are 2-spheres
        (is_dgraph, SimplicialGraph(5, combinations(range(5), 2)), 3, "no", 0, 1),  # triangles
        (is_dgraph, sixteen_cells_at_a_point(0), 3, "no", 0, 0),
        (is_dgraph, sixteen_cells_at_a_point(14), 3, "no", 14, 14),
        (is_sphere, suspension(random_sphere(3, 100)), 3, "yes", None, 531),
        (is_sphere, cross_polytope(4), 4, "yes", None, 46),
        (is_dgraph, suspension(suspension(icosahedron())), 4, "yes", None, 174),
        # a triangle link is two adjacent vertices
        (is_dgraph, capped_antiprisms_on_a_k4(), 3, "no", 0, 1),
        # an edge link is two 4-cycles, which only the walk rejects; S(0) is
        # connected and chi(S(0)) = 2
        (is_dgraph, suspension(octahedra_glued_at_poles()), 3, "no", 0, 1),
        (is_sphere, suspension(octahedra_glued_at_poles()), 3, "no", 0, 2),
    ]
    for check, g, d, verdict, witness, expansions in cases:
        case = (check.__name__, g.n, d)
        r = check(g, d)
        assert (r.verdict, r.witness, r.expansions) == (verdict, witness, expansions), case
        assert vars(check(g, d, budget=expansions)) == vars(r), case
        if expansions:
            assert check(g, d, budget=expansions - 1).verdict == "resource_limit", case


def _walked_link_pass(base, active, budget):
    """_bad_link(., 3) as it was before it read triangle links: every edge
    link is walked by _cycle."""
    twice_edges = dict.fromkeys(active, 0)
    for x in sorted(active):
        sphere = base.neighbors[x] & active
        if not sphere or not topology._connected(base, sphere):
            return x
        budget.spend()
        for y in sphere:
            if y > x:
                link = sphere & base.neighbors[y]
                if topology._cycle(base, link) is None:
                    return x
                twice_edges[x] += len(link)
                twice_edges[y] += len(link)
        if len(sphere) - twice_edges[x] // 6 != 2:
            return x
    return None


def _link_pass_cases():
    """3- and 4-spheres from the catalog, seeded suspensions and joins, and
    seeded spheres with one edge dropped or added."""
    rng = random.Random(23)
    threes = [sixteen_cell(), suspension(icosahedron()), barycentric(sixteen_cell()).graph,
              join(cycle(4), cycle(5)), join(cycle(6), cycle(7))]
    threes += [suspension(random_sphere(seed, 30)) for seed in (11, 12, 13)]
    threes += [join(cycle(k), cycle(13 - k)) for k in (4, 5)]
    fours = [cross_polytope(4), suspension(sixteen_cell()), suspension(suspension(icosahedron())),
             join(cycle(4), octahedron()), join(cycle(5), random_sphere(14, 6)),
             suspension(suspension(random_sphere(15, 10)))]
    mutated = []
    for g in threes + fours:
        edges = g.edges()
        del edges[rng.randrange(len(edges))]
        mutated.append(SimplicialGraph(g.n, edges))
        missing = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.adjacent(u, v)]
        mutated.append(SimplicialGraph(g.n, g.edges() + [rng.choice(missing)]))
    return threes + fours + mutated + [
        capped_antiprisms_on_a_k4(), suspension(octahedra_glued_at_poles()),
        sixteen_cells_at_a_point(0), sixteen_cells_at_a_point(14),
        SimplicialGraph(5, combinations(range(5), 2))]


def test_link_pass_agrees_with_walking_every_edge_link(monkeypatch):
    """Reading triangle links and walking only the edge links of 8 or more
    vertices keeps every report of walking every edge link: verdicts,
    witnesses, expansions and the budget at which each call runs out."""
    bad_link = topology._bad_link

    def walked(base, active, d, budget):
        if d == 3:
            return _walked_link_pass(base, active, budget)
        return bad_link(base, active, d, budget)

    verdicts = set()
    for g in _link_pass_cases():
        for check, d in ((is_dgraph, 3), (is_sphere, 3), (is_dgraph, 4), (is_sphere, 4)):
            for budget in (0, 3, 17, 100, 3000):
                got = vars(check(g, d, budget=budget))
                with monkeypatch.context() as m:
                    m.setattr(topology, "_bad_link", walked)
                    want = vars(check(g, d, budget=budget))
                assert got == want, (check.__name__, g.n, d, budget)
                verdicts.add((got["verdict"], type(got["witness"])))
    assert {("yes", type(None)), ("no", int), ("resource_limit", str)} <= verdicts


def _euler_first_sphere(sphere):
    """_sphere with the entry it had before whole graphs at d = 2 and 3 ran
    the link pass first: chi is counted before the first spend, and a
    2-sphere's unit spheres are decided as 1-spheres; sphere is the module's
    _sphere, which every other call goes to."""
    def entry(base, active, d, budget):
        if not active or len(active) != base.n or d not in (2, 3):
            return sphere(base, active, d, budget)
        if not topology._connected(base, active):
            return "graph is disconnected"
        chi, sphere_chi = euler_characteristic(base), 1 + (-1) ** d
        if chi != sphere_chi:
            return f"Euler characteristic {chi}, a {d}-sphere has {sphere_chi}"
        budget.spend()
        if d == 2:
            return next((x for x in sorted(active)
                         if sphere(base, base.neighbors[x] & active, 1, budget) is not None), None)
        witness = topology._bad_link(base, active, 3, budget)
        if witness is None and not topology._peel(
                base, (active - {x} for x in topology._order(base, active)), budget):
            witness = "no vertex deletion leaves a contractible graph"
        budget.memo[active, 3] = witness
        return witness
    return entry


def _links_first_cases():
    """(graph, d): the link pass cases and their mutations at d = 3, seeded
    2-spheres and their suspensions, tori, RP^2 and disjoint unions."""
    twos = [random_sphere(seed, size) for seed, size in ((31, 12), (32, 40), (33, 90))]
    tori = [kuhn_grid(2, (k, k), periodic=True) for k in (4, 5)]
    cases = [(g, 3) for g in _link_pass_cases()]
    cases += [(g, 2) for g in twos + tori + [flag_rp2(), banana(), icosahedron()]]
    cases += [(suspension(g), 3) for g in twos + tori + [flag_rp2(), banana()]]
    cases += [(disjoint_union(octahedron(), tori[0]), 2), (disjoint_union(*twos[:2]), 2),
              (disjoint_union(sixteen_cell(), suspension(tori[1])), 3)]
    return cases + [(g, 5 - d) for g, d in cases if g.n <= 40]


def test_links_first_keeps_every_report_of_counting_euler_first(monkeypatch):
    """Running the link pass before chi on whole graphs at d = 2 and 3 keeps
    every verdict, witness and expansion count of counting chi first, at
    every budget: also when chi is wrong and the pass fails or runs out."""
    outcomes = set()
    for g, d in _links_first_cases():
        every = frozenset(range(g.n))
        chi_ok = euler_characteristic(g) == 1 + (-1) ** d
        for budget in (0, 1, 3, 17, None):
            got = vars(is_sphere(g, d, budget=budget))
            with monkeypatch.context() as m:
                m.setattr(topology, "_sphere", _euler_first_sphere(topology._sphere))
                want = vars(is_sphere(g, d, budget=budget))
            assert got == want, (g.n, d, budget)
            if not g.n or not topology._connected(g, every):
                continue
            search = topology._Budget(topology.DEFAULT_BUDGET if budget is None else budget)
            try:
                search.spend()
                links = "fails" if topology._bad_link(g, every, d, search) is not None else "passes"
            except topology._Exhausted:
                links = "runs out"
            outcomes.add((chi_ok, links))
    assert {(False, "fails"), (True, "runs out"), (False, "runs out")} <= outcomes


def test_links_first_counts_euler_only_when_the_pass_names_a_witness(monkeypatch):
    def no_count(g):
        raise AssertionError("chi was counted")

    monkeypatch.setattr(topology, "euler_characteristic", no_count)
    for g, d in [(icosahedron(), 2), (random_sphere(5, 60), 2),
                 (sixteen_cell(), 3), (suspension(random_sphere(6, 30)), 3)]:
        assert is_sphere(g, d).ok, (g.n, d)
    r = is_sphere(kuhn_grid(2, (5, 5), periodic=True), 2)
    assert (r.verdict, r.witness, r.expansions) == (
        "no", "Euler characteristic 0, a 2-sphere has 2", 0)

    counts = []

    def counted(g):
        counts.append(g.n)
        return euler_characteristic(g)

    monkeypatch.setattr(topology, "euler_characteristic", counted)
    # the pass runs out, or names an apex whose unit sphere is RP^2, or names
    # vertex 0, whose unit sphere is two circles; only banana's chi is right
    rp2 = "Euler characteristic 1, a 3-sphere has 0"
    for g, d, budget, witness, expansions in [(suspension(flag_rp2()), 3, 0, rp2, 0),
                                              (suspension(flag_rp2()), 3, None, rp2, 0),
                                              (banana(), 2, None, 0, 1)]:
        counts.clear()
        r = is_sphere(g, d, budget=budget)
        assert (r.verdict, r.witness, r.expansions) == ("no", witness, expansions), (g.n, d)
        assert counts == [g.n], (g.n, d, budget)


def test_torus_not_a_sphere_without_search():
    torus = kuhn_grid(2, (5, 5), periodic=True)
    r = is_sphere(torus, 2, budget=1000)
    assert r.verdict == "no"
    assert r.expansions == 0
    assert r.witness == "Euler characteristic 0, a 2-sphere has 2"
    # the zero budget stops the search for a bad unit sphere (an apex's, RP^2) at once
    r = is_sphere(suspension(flag_rp2()), 3, budget=0)
    assert (r.verdict, r.witness) == ("no", "Euler characteristic 1, a 3-sphere has 0")


def test_annulus_not_contractible_without_search():
    r = is_contractible(annulus(6))
    assert r.verdict == "no"
    assert r.expansions == 0
    assert r.witness == "Euler characteristic 0, a contractible graph has 1"
    r = is_contractible(disjoint_union(cycle(4), SimplicialGraph(1, [])))
    assert r.verdict == "no"
    assert r.expansions == 0
    assert r.witness == "graph is disconnected"


def test_memo_prunes_repeated_subgraphs():
    r = is_contractible(rp2_with_strip(), budget=10_000)
    assert r.verdict == "no"


def test_verdict_does_not_depend_on_earlier_calls():
    assert is_sphere(sixteen_cell(), 3, budget=0).verdict == "resource_limit"
    assert is_sphere(sixteen_cell(), 3).ok
    assert is_sphere(sixteen_cell(), 3, budget=0).verdict == "resource_limit"

    def reports():
        return [vars(check(g, *args)) for g, d in _differential_cases()
                for check, args in ((is_sphere, (d,)), (is_contractible, ()))]
    assert reports() == reports()


def test_low_dimensions_spend_no_budget():
    """is_dgraph for d <= 2 and is_sphere for d <= 1 never reach a search, so a
    zero budget gives the same report as the default one, with 0 expansions."""
    graphs = [sixteen_cell(), kuhn_grid(3, (4, 4, 4), periodic=True), wheel(7),
              disjoint_union(cycle(4), cycle(5)), octahedron(), icosahedron(),
              kuhn_grid(2, (5, 5), periodic=True), cycle(6), SimplicialGraph(0, [])]
    for g in graphs:
        for check, dims in ((is_dgraph, range(-1, 3)), (is_sphere, range(-1, 2))):
            for d in dims:
                r, case = check(g, d, budget=0), (check.__name__, g.n, d)
                assert r.verdict != "resource_limit" and r.expansions == 0, case
                assert vars(r) == vars(check(g, d)), case


def _fresh_interpreter(code: str):
    """The JSON that code prints in a new interpreter that imports from src/."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True, timeout=120)
    return json.loads(done.stdout)


def test_import_leaves_the_recursion_limit_alone():
    limits = _fresh_interpreter(
        "import json, sys\n"
        "before = sys.getrecursionlimit()\n"
        "import levelgraph\n"
        "from levelgraph import *\n"
        "import levelgraph.cli\n"
        "print(json.dumps([before, sys.getrecursionlimit()]))\n")
    assert limits[0] == limits[1]


DEEP_SEARCHES = """
import json, sys
from levelgraph import is_contractible, is_sphere, kuhn_grid, random_sphere, suspension
sys.setrecursionlimit(120)
reports = [is_sphere(suspension(random_sphere(3, 250)), 3),
           is_contractible(kuhn_grid(3, (5, 5, 5)))]
print(json.dumps([[r.verdict, r.expansions] for r in reports]))
"""


def test_removal_search_is_not_bounded_by_the_python_stack():
    """With a recursion limit of 120, a 3-sphere of 264 vertices and a
    contractible 3-ball of 216 are peeled vertex by vertex: the search keeps
    its path on a list, and Python recursion grows with the dimension only."""
    assert _fresh_interpreter(DEEP_SEARCHES) == [["yes", 1167], ["yes", 237]]


# -- the worklist peel replays the depth-first search -----------------------------
# The peel as a plain depth-first search: every set it enters is sorted by
# _order, and every removal it yields is scanned by _dominating.  The worklist
# in topology._walk must make the same link checks, spends and memo writes.

def _search_peel(base, starts, budget):
    path = [(None, starts)]
    while path:
        nxt = next(path[-1][1], None)
        if nxt is None:
            active, _ = path.pop()
            if path:
                budget.memo[active] = False
        elif topology._dominating(base, nxt) or budget.memo.get(nxt):
            budget.memo.update((active, True) for active, _ in path[1:])
            return True
        elif nxt not in budget.memo:
            budget.spend()
            path.append((nxt, _search_removals(base, nxt, budget)))
    return False


def _search_removals(base, active, budget):
    for x in topology._order(base, active):
        sphere = base.neighbors[x] & active
        if (sphere and topology._connected(base, sphere)
                and topology._contractible(base, sphere, budget)):
            yield active - {x}


class _LoggedMemo(dict):
    """A memo that starts from planted entries, logs every write and notes
    each planted key that a lookup reads."""

    def __init__(self, events, planted):
        super().__init__(planted)
        self.events, self.planted, self.read = events, planted, set()

    def _note(self, key):
        if key in self.planted:
            self.read.add(key)

    def __setitem__(self, key, value):
        self.events.append(("memo", key, value))
        super().__setitem__(key, value)

    def update(self, pairs):
        for key, value in pairs:
            self[key] = value

    def get(self, key, default=None):
        self._note(key)
        return super().get(key, default)

    def __contains__(self, key):
        self._note(key)
        return super().__contains__(key)

    def __getitem__(self, key):
        self._note(key)
        return super().__getitem__(key)


def _logged_run(monkeypatch, peel, check, g, args, budget, planted=None):
    """(vars of the report, the spends and memo writes in order, the planted
    keys read) of check(g, *args, budget=budget) with _peel set to peel."""
    events, memos = [], []

    class Logged(topology._Budget):
        def __init__(self, remaining):
            super().__init__(remaining, memo=_LoggedMemo(events, dict(planted or {})))
            memos.append(self.memo)

        def spend(self):
            super().spend()
            events.append(("spend",))

    with monkeypatch.context() as m:
        m.setattr(topology, "_Budget", Logged)
        m.setattr(topology, "_peel", peel)
        report = vars(check(g, *args, budget=budget))
    return report, events, memos[0].read


REPLAY_BUDGETS = (0, 1, 7, 60, 3000)


def _replay_cases():
    """(check, graph, args) for every call that reaches the peel: is_contractible,
    is_sphere for d >= 3 and is_dgraph for d = 4."""
    from test_verifier_golden import corpus
    graphs = list(corpus().values()) + [g for g, _ in _differential_cases()]
    graphs += _two_sphere_cases()
    seeded = [suspension(random_sphere(seed, 60)) for seed in (7, 8, 9, 10)]
    seeded += [random_sphere(seed, 30) for seed in (7, 8, 9)]
    graphs += seeded + [g.induced(range(1, g.n)) for g in seeded]
    for g in graphs:
        yield is_contractible, g, ()
        yield is_sphere, g, (3,)
    for g in (cross_polytope(4), suspension(sixteen_cell()), suspension(suspension(icosahedron())),
              join(cycle(4), cycle(5)), barycentric(cross_polytope(4)).graph):
        yield is_sphere, g, (4,)
        yield is_dgraph, g, (4,)


def test_worklist_peel_replays_the_search(monkeypatch):
    """Every report, spend and memo write of the worklist peel is the search's,
    at every budget, also when the memo holds planted False entries for sets
    on the way; both the memo skip and the hand-over to the loop run, the
    hand-over also without planted entries (rp2_with_strip backtracks)."""
    yields = []

    def counted_removals(*args):
        for rest in removals(*args):
            yields.append(rest)
            yield rest
    removals = topology._removals
    monkeypatch.setattr(topology, "_removals", counted_removals)
    runs = backtracks = planted_runs = skips = 0
    for check, g, args in _replay_cases():
        for budget in REPLAY_BUDGETS:
            case = (check.__name__, g.n, args, budget)
            want = _logged_run(monkeypatch, _search_peel, check, g, args, budget)
            stalled = len(yields)
            got = _logged_run(monkeypatch, topology._peel, check, g, args, budget)
            assert got == want, case
            runs += 1
            backtracks += len(yields) > stalled
            if budget < 60 or check is is_dgraph or want[0]["verdict"] != "yes":
                continue
            # the sets of the path from the first set entered to a cone: the
            # last ones memoized True, from the largest
            trues = [e[1] for e in want[1] if e[0] == "memo" and e[2] is True]
            path = trues[trues.index(max(trues, key=len)):] if trues else []
            if len(path) < 2:
                continue
            # the first removal's set, then every third set of the path, as False
            planted = dict.fromkeys(path[1:2] + path[3::3], False)
            want = _logged_run(monkeypatch, _search_peel, check, g, args, budget, planted)
            got = _logged_run(monkeypatch, topology._peel, check, g, args, budget, planted)
            assert got == want, case + ("planted",)
            # in is_contractible only the walk from the whole graph looks up
            # a set one vertex smaller
            skips += check is is_contractible and path[1] in got[2]
            planted_runs += 1
    assert runs >= 1000 and planted_runs >= 40 and skips >= 20
    # a walk stalled and the loop found another branch on the path it was
    # handed: rp2_with_strip, barycentric(16-cell) and barycentric(cross_polytope(4))
    assert backtracks >= 5


def test_large_spheres_keep_their_reports():
    """The verdicts and expansion counts of the search before the worklist, at
    a size where re-sorting every nested set took seconds."""
    cases = [
        (is_sphere, barycentric(barycentric(sixteen_cell()).graph).graph, 3, 12_628),
        (is_sphere, suspension(random_sphere(3, 800)), 3, 3_924),
        (is_dgraph, barycentric(cross_polytope(4)).graph, 4, 16_478),
    ]
    for check, g, d, expansions in cases:
        r = check(g, d)
        assert (r.verdict, r.witness, r.expansions) == ("yes", None, expansions), (g.n, d)
