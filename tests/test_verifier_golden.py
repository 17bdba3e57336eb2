"""Golden verifier reports: verdict, witness, expansions and dimension, pinned.

`tests/data/verifier_golden.json` holds `vars(report)` of `is_sphere`,
`is_dgraph` and `is_contractible` over a fixed corpus: catalog spheres,
their suspensions, balls (a sphere minus vertex 0), two periodic Kuhn tori,
the non-manifold and non-sphere fixtures of `test_topology.py`, and small
edge cases.  Each graph is checked for every d in -1..4 (the contractibility
check has no d) and every budget in BUDGETS.  A change to the verifier that
keeps these reports keeps every verdict, every witness and every budget
threshold.

Regenerate the file (only when a report is meant to change) with

    PYTHONPATH=src python tests/test_verifier_golden.py
"""

from __future__ import annotations

import json
import os
import sys

import pytest

from levelgraph.catalog import (cross_polytope, cycle, icosahedron, kuhn_grid,
                                random_sphere, sixteen_cell, suspension)
from levelgraph.core import SimplicialGraph, disjoint_union
from levelgraph.topology import is_contractible, is_dgraph, is_sphere
from test_topology import annulus, banana, flag_rp2, rp2_with_strip

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                      "verifier_golden.json")

DIMENSIONS = range(-1, 5)
BUDGETS = (None, 0, 1, 2, 40)


def corpus() -> dict[str, SimplicialGraph]:
    spheres = {"cross_polytope(0)": cross_polytope(0), "cycle(5)": cycle(5),
               "icosahedron": icosahedron(), "16-cell": sixteen_cell(),
               "random_sphere(4,12)": random_sphere(4, 12)}
    graphs = dict(spheres)
    graphs.update({f"suspension({name})": suspension(g) for name, g in spheres.items()})
    graphs.update({f"ball({name})": g.induced(range(1, g.n))
                   for name, g in spheres.items() if g.n > 2})
    graphs.update({
        "torus(4x4)": kuhn_grid(2, (4, 4), periodic=True),
        "torus(5x5)": kuhn_grid(2, (5, 5), periodic=True),
        "flag_rp2": flag_rp2(), "banana": banana(), "annulus(6)": annulus(6),
        "rp2_with_strip": rp2_with_strip(),
        "empty": SimplicialGraph(0, []), "K1": SimplicialGraph(1, []),
        "K2": SimplicialGraph(2, [(0, 1)]),
        "two_edges": SimplicialGraph(4, [(0, 1), (2, 3)]),
        "C3": cycle(3), "two_C4": disjoint_union(cycle(4), cycle(4)),
    })
    return graphs


def reports(g: SimplicialGraph) -> dict[str, dict]:
    """Every pinned report of one graph, keyed by the call that made it."""
    out = {}
    for budget in BUDGETS:
        for d in DIMENSIONS:
            out[f"is_sphere(d={d}, budget={budget})"] = vars(is_sphere(g, d, budget))
            out[f"is_dgraph(d={d}, budget={budget})"] = vars(is_dgraph(g, d, budget))
        out[f"is_contractible(budget={budget})"] = vars(is_contractible(g, budget))
    return out


CORPUS = corpus()


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_corpus_covers_the_golden_file(golden):
    assert list(golden) == list(CORPUS)


@pytest.mark.parametrize("name", list(CORPUS))
def test_reports_match_golden(golden, name):
    got = json.loads(json.dumps(reports(CORPUS[name])))
    assert got == golden[name]


def _regenerate():
    out = {name: reports(g) for name, g in CORPUS.items()}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print(f"wrote {sum(map(len, out.values()))} reports of {len(out)} graphs to {GOLDEN}",
          file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
