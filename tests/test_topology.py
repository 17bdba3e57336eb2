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
    - the d = 3 pass that walks each edge link once keeps every verdict,
      witness and expansion count, and every budget threshold
    - a verdict depends only on the graph, the dimension and the budget, not
      on earlier calls
    - only is_sphere for d >= 2, is_dgraph for d >= 3 and is_contractible
      spend expansions
    - importing the package leaves the recursion limit alone, and the
      removal search runs far deeper than the Python stack it is given
"""

import json
import os
import subprocess
import sys
from itertools import combinations

import pytest

from levelgraph.core import SimplicialGraph, disjoint_union, join
from levelgraph.catalog import (cross_polytope, cycle, icosahedron, kuhn_grid,
                                octahedron, random_sphere, sixteen_cell, suspension, wheel)
from levelgraph.refine import barycentric
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
    ]
    for check, g, d, verdict, witness, expansions in cases:
        case = (check.__name__, g.n, d)
        r = check(g, d)
        assert (r.verdict, r.witness, r.expansions) == (verdict, witness, expansions), case
        assert vars(check(g, d, budget=expansions)) == vars(r), case
        if expansions:
            assert check(g, d, budget=expansions - 1).verdict == "resource_limit", case


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
