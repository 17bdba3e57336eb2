"""Golden CLI reports: every command's JSON, exit code and written file, pinned.

`tests/data/cli_golden_doc.json` is a seeded barycentric octahedron with two
coordinate-driven functions `f` and `g` (both cut it near a great circle at
level 1/3).  `tests/data/cli_golden.json` holds, for each case, the argv, the
exit code, the report without `timings` and the text of any file it wrote.
Paths under the working directory are written as `<work>`, the document as
`<doc>`.  Rationals, integers, strings and key order must match exactly;
floats match to 1e-9 relative (1e-12 absolute near zero).

Regenerate both files (only when a report is meant to change) with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import sys
import tempfile
from fractions import Fraction

import pytest

from levelgraph import catalog, graphdoc
from levelgraph.cli import main
from levelgraph.refine import barycentric

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
DOC = os.path.join(DATA, "cli_golden_doc.json")
GOLDEN = os.path.join(DATA, "cli_golden.json")

CUT = ["--function", "f", "--function", "g", "--level", "1/3", "--level", "1/3"]

CASES = {
    # the commands of the benchmark's cli workload
    "verify": ["verify", "--graph", "builtin:16-cell"],
    "euler": ["euler", "--graph", "<doc>"],
    "curvature": ["curvature", "--graph", "<doc>"],
    "refine": ["refine", "--graph", "<doc>", "--out", "<work>/refined.json"],
    "levelset": ["levelset", "--graph", "<doc>", "--function", "f", "--level", "1/3"],
    "simultaneous": ["simultaneous", "--graph", "<doc>"] + CUT,
    "sard": ["sard", "--graph", "<doc>"] + CUT,
    "lagrange": ["lagrange", "--graph", "<doc>"] + CUT,
    "variety": ["variety", "--poly", "x^2+y^2+z^2-2", "--domain", "-2,2;-2,2;-2,2",
                "--step", "1/2"],
    "spectrum": ["spectrum", "--graph", "<doc>"],
    "nodal": ["nodal", "--graph", "<doc>", "--k", "2", "--seed", "7"],
    "ground-state": ["ground-state", "--graph", "builtin:16-cell", "--seed", "7"],
    "export": ["export", "--graph", "<doc>", "--format", "off", "--out", "<work>/mesh.off"],
    # exports, verdicts other than "yes" and errors
    "refine-no-out": ["refine", "--graph", "<doc>"],
    "levelset-json": ["levelset", "--graph", "<doc>", "--function", "f", "--level", "1/3",
                      "--format", "json", "--out", "<work>/surface.json"],
    "sard-obj": ["sard", "--graph", "<doc>"] + CUT + ["--format", "obj",
                                                      "--out", "<work>/sard.obj"],
    "nodal-off": ["nodal", "--graph", "<doc>", "--k", "3", "--seed", "7",
                  "--format", "off", "--out", "<work>/nodal.off"],
    "export-cut": ["export", "--graph", "<doc>", "--function", "g", "--level", "1/3",
                   "--out", "<work>/cut.obj"],
    "lagrange-levels-default": ["lagrange", "--graph", "builtin:octahedron",
                                "--function", "1,2,3,4,5,6", "--function", "6,1,5,2,4,3"],
    "variety-singular": ["variety", "--poly", "x*y", "--domain", "-2,2;-2,2",
                         "--step", "1/2"],
    "variety-out": ["variety", "--poly", "x^2+y^2-2", "--domain", "-2,2;-2,2",
                    "--step", "1/2", "--out", "<work>/circle.json"],
    "verify-budget": ["verify", "--graph", "builtin:16-cell", "--budget", "3"],
    "verify-missing": ["verify", "--graph", "<work>/missing.json"],
    "levelset-unknown-function": ["levelset", "--graph", "<doc>", "--function", "h",
                                  "--level", "1/3"],
    "export-out-missing-dir": ["export", "--graph", "<doc>", "--out", "<work>/no/x.off"],
    "foreign-flag": ["euler", "--graph", "<doc>", "--k", "2"],
}


def golden_document() -> graphdoc.GraphDocument:
    """The seeded document the cases run on (built once, then read from DATA)."""
    rng = random.Random("levelgraph/cli-golden")
    g = barycentric(catalog.octahedron()).graph
    f = [Fraction(1000 * round(1000 * p[0]) + t)
         for p, t in zip(g.coordinates, rng.sample(range(g.n), g.n))]
    h = [Fraction(1000 * round(1000 * p[1]) + t)
         for p, t in zip(g.coordinates, rng.sample(range(g.n), g.n))]
    return graphdoc.GraphDocument(g, {"f": f, "g": h})


def run_case(argv: list[str], work: str) -> dict:
    """Run one case in process; the result with paths written back as placeholders."""
    concrete = [a.replace("<doc>", DOC).replace("<work>", work) for a in argv]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(concrete)
    text = stdout.getvalue().replace(work, "<work>").replace(DOC, "<doc>")
    report = json.loads(text)
    report.pop("timings", None)
    files = {}
    for name in sorted(os.listdir(work)):
        with open(os.path.join(work, name), encoding="utf-8") as fh:
            files[name] = fh.read()
    return {"argv": argv, "exit": code, "report": report, "files": files}


def assert_matches(got, want, where="report"):
    if isinstance(want, float) or isinstance(got, float):
        assert isinstance(got, (int, float)) and isinstance(want, (int, float)), where
        assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12), (where, got, want)
    elif isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), (where, list(got), list(want))
        for key in want:
            assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), (where, got, want)
        for i, (a, b) in enumerate(zip(got, want)):
            assert_matches(a, b, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, (where, got, want)


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_cases_cover_the_golden_file(golden):
    assert list(golden) == list(CASES)
    assert all(golden[name]["argv"] == argv for name, argv in CASES.items())


@pytest.mark.parametrize("name", list(CASES))
def test_report_matches_golden(golden, name, tmp_path, monkeypatch):
    monkeypatch.delenv("SARD_BUDGET", raising=False)
    want = golden[name]
    got = run_case(want["argv"], str(tmp_path))
    assert got["exit"] == want["exit"]
    assert_matches(got["report"], want["report"])
    assert got["files"] == want["files"]


def _regenerate():
    os.makedirs(DATA, exist_ok=True)
    graphdoc.save(golden_document(), DOC)
    os.environ.pop("SARD_BUDGET", None)
    out = {}
    for name, argv in CASES.items():
        with tempfile.TemporaryDirectory() as work:
            out[name] = run_case(argv, work)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(out)} cases to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
