"""Command line driver: JSON reports, exit codes, reproducibility.

Exit code contract: 0 success, 2 some verification said "no", 3 budget
exhausted, 4 bad input (including argparse errors, remapped from the
stock exit 2 to avoid colliding with the verdict code).
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import levelgraph
from levelgraph import graphdoc
from levelgraph.cli import _COMMANDS, _OPTIONS, main
from levelgraph.graphdoc import MAX_VERTICES
from levelgraph.levelset import level_surface
from levelgraph.refine import extend_function
from test_graphdoc import BAD_DOCUMENTS

CAP_F = "5,-1,-2,-3,-4,-6,-7,-8"
CAP_H = "-11,9,-12,-13,-14,-15,-16,-17"


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as e:
        code = e.code
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_verify_octahedron(capsys):
    code, rep = run(capsys, "verify", "--graph", "builtin:octahedron")
    assert code == 0
    assert rep["command"] == "verify"
    assert rep["verification"]["verdict"] == "yes"
    assert rep["graph"]["euler_characteristic"] == 2
    assert rep["graph"]["f_vector"] == [6, 12, 8]


def test_verify_disk_fails_with_witness(capsys):
    code, rep = run(capsys, "verify", "--graph", "builtin:wheel(6)")
    assert code == 2
    assert rep["verification"]["verdict"] == "no"
    assert rep["verification"]["witness"] is not None


def test_budget_flag_gives_exit_3(capsys):
    code, rep = run(capsys, "verify", "--graph", "builtin:16-cell", "--budget", "0")
    assert code == 3
    assert rep["verification"]["verdict"] == "resource_limit"


def test_budget_counts_one_expansion_per_two_sphere(capsys):
    # the 16-cell's eight unit spheres are octahedra, one expansion each
    code, rep = run(capsys, "verify", "--graph", "builtin:16-cell", "--budget", "8")
    assert code == 0 and rep["verification"]["expansions"] == 8
    code, rep = run(capsys, "verify", "--graph", "builtin:16-cell", "--budget", "7")
    assert code == 3 and rep["verification"]["verdict"] == "resource_limit"


def test_budget_comes_from_the_flag_alone(capsys, monkeypatch):
    # SARD_BUDGET is not read: a report depends on argv and the graph alone
    monkeypatch.setenv("SARD_BUDGET", "0")
    code, rep = run(capsys, "verify", "--graph", "builtin:16-cell")
    assert code == 0 and rep["verification"]["expansions"] == 8


def test_missing_file_reports_json_error(capsys):
    code, rep = run(capsys, "verify", "--graph", "/no/such/file.json")
    assert code == 4
    assert rep["error"]["type"] == "InputError"
    assert "file.json" in rep["error"]["message"]


OCTAHEDRON_EDGES = [[u, v] for u in range(6) for v in range(u + 1, 6) if u + v != 5]


MISSING_DIR = "<missing>/x"  # a path under a directory that does not exist


@pytest.mark.parametrize("graph, argv", [
    pytest.param("builtin:cycle", ("verify",), id="cycle-no-arg"),
    pytest.param("builtin:wheel(x)", ("verify",), id="wheel-non-int"),
    pytest.param("builtin:cycle(5,6)", ("verify",), id="cycle-extra-arg"),
    pytest.param("builtin:kuhn(4x4,periodc)", ("verify",), id="kuhn-bad-flag"),
    pytest.param({"coordinates": [["a", 0, 0]] * 6}, ("verify",), id="coord-non-numeric"),
    pytest.param({"coordinates": [1, 2, 3, 4, 5, 6]}, ("verify",), id="coord-scalar"),
    pytest.param({"coordinates": [[1, 0, 0]] * 5 + [[0, 1]]}, ("verify",), id="coord-ragged"),
    pytest.param({"coordinates": [[0, -math.inf, 0]] * 6}, ("verify",), id="coord-infinity"),
    pytest.param({"coordinates": [[0, 0, True]] * 6}, ("verify",), id="coord-bool"),
    pytest.param({"values": {"f": [1, 2, "1e10000000", 4, 5, 6]}},
                 ("levelset", "--function", "f", "--level", "5/2"), id="value-huge-exponent"),
    pytest.param("builtin:octahedron", ("levelset", "--function", "1,2,3,4,5,6",
                                        "--level", "1e10000000"),
                 id="level-huge-exponent"),
    pytest.param("builtin:octahedron", ("verify", "--budget", "-1"), id="budget-flag-negative"),
    pytest.param({"vertices": MAX_VERTICES + 1}, ("euler",), id="vertices-over-cap"),
    pytest.param("builtin:cross_polytope(3000)", ("euler",), id="builtin-over-edge-cap"),
    pytest.param("builtin:random_sphere(1,100000)", ("euler",), id="builtin-random-over-cap"),
    pytest.param("builtin:kuhn(1000x1000)", ("euler",), id="builtin-kuhn-over-cap"),
    pytest.param(f"builtin:cycle({MAX_VERTICES + 1})", ("euler",), id="builtin-cycle-over-cap"),
    pytest.param(None, ("verify",), id="graph-is-directory"),
    pytest.param(b"\xff\xfe{}", ("verify",), id="graph-not-utf8"),
    pytest.param("builtin:octahedron", ("refine", "--out", MISSING_DIR),
                 id="refine-out-missing-dir"),
    pytest.param("builtin:octahedron", ("export", "--out", MISSING_DIR),
                 id="export-out-missing-dir"),
    pytest.param("builtin:octahedron", ("levelset", "--function", "1,2,3,4,5,6",
                                        "--level", "5/2", "--out", MISSING_DIR),
                 id="levelset-out-missing-dir"),
])
def test_malformed_input_exits_4(capsys, tmp_path, graph, argv):
    path = tmp_path / "graph.json"
    if graph is None:
        graph = str(tmp_path)
    elif isinstance(graph, bytes):
        path.write_bytes(graph)
        graph = str(path)
    elif isinstance(graph, dict):
        path.write_text(json.dumps({"vertices": 6, "edges": OCTAHEDRON_EDGES, **graph}))
        graph = str(path)
    rest = [a.replace("<missing>", str(tmp_path / "missing")) for a in argv[1:]]
    code, rep = run(capsys, argv[0], "--graph", graph, *rest)
    assert code == 4
    assert rep["error"]["type"] == "InputError"


@pytest.mark.parametrize("name", list(BAD_DOCUMENTS))
def test_undecodable_documents_exit_4(capsys, tmp_path, name):
    path = tmp_path / "doc.json"
    path.write_text(BAD_DOCUMENTS[name])
    code, rep = run(capsys, "euler", "--graph", str(path))
    assert code == 4
    assert rep["error"]["type"] == "InputError"


def test_argparse_errors_exit_4(capsys):
    code, rep = run(capsys, "verify", "--graph", "builtin:octahedron", "--bogus")
    assert code == 4 and rep["command"] == "verify"
    assert rep["error"]["type"] == "UsageError"
    code, rep = run(capsys, "no-such-command")
    assert code == 4 and rep["command"] is None
    assert rep["error"]["type"] == "UsageError"
    code, rep = run(capsys, "verify")  # --graph is required
    assert code == 4 and rep["command"] == "verify"
    assert rep["error"]["type"] == "UsageError"


OCTAHEDRON = ("--graph", "builtin:octahedron")
LEVELSET = ("levelset", *OCTAHEDRON, "--function", "1,2,3,4,5,6", "--level", "7/2")


@pytest.mark.parametrize("argv", [
    pytest.param(LEVELSET + ("--poly", "junk"), id="levelset-poly"),
    pytest.param(LEVELSET + ("--k", "99"), id="levelset-k"),
    pytest.param(("verify", *OCTAHEDRON, "--seed", "1"), id="verify-seed"),
    pytest.param(("euler", *OCTAHEDRON, "--out", "x.json"), id="euler-out"),
    pytest.param(("spectrum", *OCTAHEDRON, "--budget", "5"), id="spectrum-budget"),
    pytest.param(("nodal", *OCTAHEDRON, "--budget", "-1"), id="budget-flag-negative-unused"),
    pytest.param(("export", *OCTAHEDRON, "--out", "x.off", "--budget", "5"), id="export-budget"),
    pytest.param(("lagrange", *OCTAHEDRON, "--function", "1,2,3,4,5,6", "--budget", "5"),
                 id="lagrange-budget"),
    pytest.param(("spectrum", *OCTAHEDRON, "--tol", "1e300"), id="spectrum-tol"),
    pytest.param(("nodal", *OCTAHEDRON, "--dim", "2"), id="nodal-dim"),
    pytest.param(("ground-state", *OCTAHEDRON, "--k", "3"), id="ground-state-k"),
    pytest.param(("export", *OCTAHEDRON, "--out", "x.off", "--periodic"), id="export-periodic"),
    pytest.param(("variety", *OCTAHEDRON, "--poly", "x^2+y^2-2", "--domain", "-2,2;-2,2",
                  "--step", "1/2"), id="variety-graph"),
])
def test_foreign_flag_exits_4(capsys, argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    assert code == 4 and "usage:" in err
    rep = json.loads(out)
    assert rep.keys() == {"command", "error"} and rep["command"] == argv[0]
    assert rep["error"]["type"] == "UsageError"
    assert rep["error"]["message"].startswith("unrecognized arguments:")


@pytest.mark.parametrize("argv, missing", [
    (("--domain", "-2,2;-2,2", "--step", "1/2"), "--poly"),
    (("--poly", "x^2+y^2-2", "--step", "1/2"), "--domain"),
    (("--poly", "x^2+y^2-2", "--domain", "-2,2;-2,2"), "--step"),
])
def test_variety_missing_flag_is_usage_error(capsys, argv, missing):
    code, rep = run(capsys, "variety", *argv)
    assert code == 4 and rep["command"] == "variety"
    assert rep["error"] == {"type": "UsageError",
                            "message": f"the following arguments are required: {missing}"}


@pytest.mark.parametrize("argv, message", [
    (("simultaneous", *OCTAHEDRON), "at least one constraint required"),
    (("simultaneous", *OCTAHEDRON, "--function", "1,2,3,4,5,6"), "need one level per function"),
    (("sard", *OCTAHEDRON), "at least one function required"),
    (("sard", *OCTAHEDRON, "--function", "1,2,3,4,5,6", "--level", "1/2", "--level", "1/2"),
     "1 functions but 2 levels"),
    (("lagrange", *OCTAHEDRON), "at least one function required"),
    (("lagrange", *OCTAHEDRON, "--function", "1,2,3,4,5,6", "--function", "6,1,5,2,4,3",
      "--level", "1/2"), "need one level per function"),
    (("levelset", *OCTAHEDRON, "--function", "1,2,3,4,5,6"),
     "levelset needs exactly one --function and one --level"),
    (("export", *OCTAHEDRON, "--level", "1/2", "--out", "x.off"),
     "export needs exactly one --function and one --level"),
])
def test_count_errors_carry_the_library_message(capsys, argv, message):
    code, rep = run(capsys, *argv)
    assert code == 4
    assert rep["error"] == {"type": "InputError", "message": message}


def test_lagrange_over_subset_cap_keeps_the_report(capsys):
    # ten functions put 30 values on each triangle, over the per-simplex cap of 20
    functions = [w for i in range(10)
                 for w in ("--function", ",".join(str(6 * i + v + 1) for v in range(6)))]
    code, rep = run(capsys, "lagrange", *OCTAHEDRON, *functions)
    assert code == 0
    assert rep["max_rank"]["ok"] is True
    assert rep["injectivity"] == {
        "global": True, "per_simplex": None,
        "per_simplex_error": "per-simplex subset check limited to 20 values, "
                             "a top simplex has 30"}


def test_spectrum_octahedron(capsys):
    code, rep = run(capsys, "spectrum", *OCTAHEDRON)
    assert code == 0
    assert all(abs(a - b) < 1e-8 for a, b in zip(rep["eigenvalues"], [0, 4, 4, 4, 6, 6]))
    assert len(rep["eigenvalues"]) == 6
    assert rep["solver"] == "eigh" and rep["max_residual"] < 1e-8


def test_levelset_inline_function(capsys):
    code, rep = run(capsys, "levelset", "--graph", "builtin:octahedron",
                    "--function", "1,2,3,4,5,6", "--level", "5/2")
    assert code == 0
    assert rep["level"] == "5/2"
    assert rep["surface"]["n"] == 12
    assert rep["surface"]["cycle_lengths"] == [12]
    assert rep["verification"]["verdict"] == "yes"


def test_negative_level_parses(capsys):
    code, rep = run(capsys, "levelset", "--graph", "builtin:octahedron",
                    "--function", "1,2,3,4,5,6", "--level", "-1/2")
    assert code == 0
    assert rep["surface"]["n"] == 0


def test_inline_function_length_checked(capsys):
    code, rep = run(capsys, "levelset", "--graph", "builtin:octahedron",
                    "--function", "1,2,3", "--level", "1/2")
    assert code == 4
    assert rep["error"]["type"] == "InputError"


def test_simultaneous_cap_pair(capsys):
    code, rep = run(capsys, "simultaneous", "--graph", "builtin:16-cell",
                    "--function", CAP_F, "--function", CAP_H,
                    "--level", "0", "--level", "0")
    assert code == 0
    assert rep["locus"]["cycle_lengths"] == [8]
    assert rep["verification"]["verdict"] == "yes"


def test_lagrange_report(capsys):
    code, rep = run(capsys, "lagrange", "--graph", "builtin:16-cell",
                    "--function", CAP_F, "--function", CAP_H)
    assert code == 0
    assert rep["max_rank"]["ok"] is True
    assert rep["max_rank"]["checked"] > 0
    assert rep["injectivity"]["global"] is True


def test_sard_stage_report(capsys):
    code, rep = run(capsys, "sard", "--graph", "builtin:octahedron",
                    "--function", "1,2,3,4,5,6", "--level", "5/2")
    assert code == 0
    assert rep["extension_rule"] == "flattened-multiset-mean"
    assert len(rep["stages"]) == 1
    assert rep["stages"][0]["surface"]["n"] == 12
    assert rep["stages"][0]["verification"]["verdict"] == "yes"


def test_fixed_seed_runs_identical(capsys):
    args = ("nodal", "--graph", "builtin:wheel(7)", "--k", "2", "--seed", "5")
    code1, rep1 = run(capsys, *args)
    code2, rep2 = run(capsys, *args)
    assert code1 == code2 == 0
    rep1.pop("timings")
    rep2.pop("timings")
    assert rep1 == rep2  # bitwise apart from wall-clock timings
    assert rep1["perturbed"] is True and rep1["seed"] == 5


def test_nodal_zero_without_seed_is_input_error(capsys):
    code, rep = run(capsys, "nodal", "--graph", "builtin:wheel(7)", "--k", "2")
    assert code == 4
    assert rep["error"]["type"] == "ZeroOnVertex"


def test_spectrum_golden(capsys):
    code, rep = run(capsys, "spectrum", "--graph", "builtin:wheel(7)")
    assert code == 0
    want = [0, 2, 2, 4, 4, 5, 7]
    assert all(abs(a - b) < 1e-8 for a, b in zip(rep["eigenvalues"], want))
    assert len(rep["eigenfunction_principle"]) == 5
    assert all(row["abs_value"] < 1e-8 for row in rep["eigenfunction_principle"])


def test_curvature_icosahedron(capsys):
    code, rep = run(capsys, "curvature", "--graph", "builtin:icosahedron")
    assert code == 0
    assert set(rep["curvature"]) == {"1/6"}
    assert rep["total"] == "2/1"
    assert rep["matches_euler_characteristic"] is True


def test_variety_circle(capsys):
    code, rep = run(capsys, "variety", "--poly", "x^2+y^2-2",
                    "--domain", "-2,2;-2,2", "--step", "1/4")
    assert code == 0
    assert rep["stages"][-1]["surface"]["cycle_lengths"] == [156]


def test_variety_singular_exits_2(capsys):
    code, rep = run(capsys, "variety", "--poly", "x*y",
                    "--domain", "-2,2;-2,2", "--step", "1/2")
    assert code == 2
    last = rep["stages"][-1]
    assert last["perturbed"] is True
    assert last["verification"]["verdict"] == "no"


def test_variety_rejects_bad_polynomial(capsys):
    code, rep = run(capsys, "variety", "--poly", "sin(x)",
                    "--domain", "-2,2", "--step", "1/2")
    assert code == 4
    assert rep["error"]["type"] == "UnparsablePolynomial"


@pytest.mark.parametrize("poly, reason", [
    ("x^65", "exponent 65 is over the cap of 64"),
    ("+".join(["x"] * 1000), "1999 nodes, over the cap of 256"),  # was a RecursionError
])
def test_variety_polynomial_over_a_cap_exits_4(capsys, poly, reason):
    code, rep = run(capsys, "variety", "--poly", poly, "--domain", "-2,2", "--step", "1/2")
    assert code == 4 and rep["error"]["type"] == "UnparsablePolynomial"
    assert rep["error"]["message"].endswith(reason)


def test_variety_grid_over_the_cap_exits_4(capsys):
    # 2,000,001^2 lattice points: rejected from the axis sizes, before any grid exists
    code, rep = run(capsys, "variety", "--poly", "x^2+y^2-1",
                    "--domain", "-1000,1000;-1000,1000", "--step", "1/1000")
    assert code == 4 and rep["error"]["type"] == "InputError"
    assert "variety grid: over the cap" in rep["error"]["message"]


# rationals whose "p/q" would pass the 4,300 digits that str() of an int
# allows: a perturbed level with a 6,413-digit denominator, and the means of
# two values with 2,502-digit denominators
LONG_LEVEL_POLY = "(1/N*x)^64-(1/N)^64".replace("N", "7" * 100)
LONG_MEANS = ["1/" + "3" * 2500 + "31", "1/" + "7" * 2500 + "79", "0"]


def test_a_level_too_long_to_write_exits_4(capsys):
    code, rep = run(capsys, "variety", "--poly", LONG_LEVEL_POLY, "--domain", "-2,2",
                    "--step", "1/2")
    assert code == 4 and rep["error"]["type"] == "InputError"
    assert "cannot write a rational" in rep["error"]["message"]


def test_a_document_too_long_to_write_exits_4(capsys, tmp_path):
    # the edge means of refine's extended function have 5,004-digit denominators
    doc, out = tmp_path / "doc.json", tmp_path / "refined.json"
    doc.write_text(json.dumps({"vertices": 3, "edges": [[0, 1], [1, 2], [0, 2]],
                               "values": {"f": LONG_MEANS}}))
    code, rep = run(capsys, "refine", "--graph", str(doc), "--out", str(out))
    assert code == 4 and rep["error"]["type"] == "InputError"
    assert "cannot write a rational" in rep["error"]["message"]
    assert not out.exists()  # the document is written whole or not at all


def test_listing_commands_read_the_f_vector_of_the_listed_complex(capsys, monkeypatch):
    from levelgraph import cli, core
    loaded = []
    load, count = cli._load_graph, core._clique_counts

    def load_and_keep(spec):
        loaded.append(load(spec))
        return loaded[-1]

    def refuse_the_document(nbrs, verts):
        if nbrs is loaded[-1].graph.neighbors:
            raise AssertionError("counted the document graph")
        return count(nbrs, verts)  # level surfaces and refinements are counted
    monkeypatch.setattr(cli, "_load_graph", load_and_keep)
    monkeypatch.setattr(core, "_clique_counts", refuse_the_document)
    for argv in (("curvature", "--graph", "builtin:icosahedron"),
                 ("refine", *OCTAHEDRON),
                 ("nodal", "--graph", "builtin:wheel(7)", "--k", "2", "--seed", "5"),
                 ("ground-state", "--graph", "builtin:16-cell"),
                 ("lagrange", "--graph", "builtin:16-cell", "--function", CAP_F,
                  "--function", CAP_H)):
        code, rep = run(capsys, *argv)
        assert code == 0 and list(rep)[:2] == ["command", "graph"]
        f_vector = [len(group) for group in loaded[-1].graph.simplices()]
        assert rep["graph"]["f_vector"] == f_vector
    # euler and verify list nothing, so they still count
    for argv in (("euler", *OCTAHEDRON), ("verify", *OCTAHEDRON)):
        with pytest.raises(AssertionError, match="counted the document graph"):
            run(capsys, *argv)


def test_export_off_file(capsys, tmp_path):
    out = str(tmp_path / "oct.off")
    code, rep = run(capsys, "export", "--graph", "builtin:octahedron",
                    "--format", "off", "--out", out)
    assert code == 0 and rep["out"] == out
    with open(out) as fh:
        assert fh.readline() == "OFF\n"
        assert fh.readline() == "6 8 0\n"


def test_non_finite_coordinates_never_reach_an_export(capsys, tmp_path):
    doc, out = tmp_path / "doc.json", tmp_path / "oct.off"
    doc.write_text(json.dumps({"vertices": 6, "edges": OCTAHEDRON_EDGES,
                               "coordinates": [[math.nan, 0, 0]] + [[1, 0, 0]] * 5}))
    code, rep = run(capsys, "export", "--graph", str(doc), "--format", "off", "--out", str(out))
    assert code == 4 and rep["error"]["type"] == "InputError"
    assert "coordinates[0]" in rep["error"]["message"]
    assert not out.exists()


COLD_START = """
import json
import sys
def loaded():
    return sorted(m for m in sys.modules if m.startswith("levelgraph.") or m == "numpy")
import levelgraph
steps = {"import": loaded()}
from levelgraph import cli
for command in ("euler", "verify", "levelset", "spectrum"):
    argv = [command, "--graph", "builtin:octahedron"]
    if command == "levelset":
        argv += ["--function", "1,2,3,4,5,6", "--level", "5/2"]
    assert cli.main(argv) == 0
    steps[command] = loaded()
print(json.dumps(steps), file=sys.stderr)
"""

# every submodule's top-level imports, run without an eigensolve
EVERY_MODULE = """
import json
import sys
import levelgraph
from levelgraph import *
import levelgraph.cli
print(json.dumps(sorted(m for m in sys.modules if m.startswith("levelgraph.") or m == "numpy")),
      file=sys.stderr)
"""


def test_numpy_is_loaded_only_by_an_eigensolve():
    """In a fresh interpreter `import levelgraph` loads no submodule; euler
    loads the document layer and the catalog, verify adds the verifier alone,
    and numpy waits for an eigensolve: spectrum, the positive control, loads it.
    Loading every submodule, by a star import and the CLI, leaves numpy out."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src}

    def last_report(script):
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, check=True, timeout=120)
        return json.loads(done.stderr.strip().splitlines()[-1])

    steps = {name: set(mods) for name, mods in last_report(COLD_START).items()}
    assert steps["import"] == set()
    assert steps["euler"] == {f"levelgraph.{m}" for m in
                              ("catalog", "cli", "core", "errors", "graphdoc", "rational")}
    assert steps["verify"] - steps["euler"] == {"levelgraph.topology"}
    assert "numpy" not in steps["levelset"]
    assert "numpy" in steps["spectrum"]
    assert set(last_report(EVERY_MODULE)) == {f"levelgraph.{m}" for m in levelgraph._EXPORTS}


def test_levelset_json_export(capsys, tmp_path):
    out = str(tmp_path / "surface.json")
    code, rep = run(capsys, "levelset", "--graph", "builtin:octahedron",
                    "--function", "1,2,3,4,5,6", "--level", "5/2",
                    "--format", "json", "--out", out)
    assert code == 0 and rep["out"] == out
    with open(out) as fh:
        doc = json.load(fh)
    assert len(doc["vertices"]) == 12  # labeled by originating simplex


def test_json_export_keeps_document_functions(capsys, tmp_path):
    doc_path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "data", "cli_golden_doc.json")
    doc = graphdoc.load(doc_path)
    whole, cut = str(tmp_path / "whole.json"), str(tmp_path / "cut.json")
    code, _ = run(capsys, "export", "--graph", doc_path, "--format", "json", "--out", whole)
    assert code == 0
    assert graphdoc.load(whole).values == doc.values
    code, _ = run(capsys, "export", "--graph", doc_path, "--function", "f", "--level", "1/3",
                  "--format", "json", "--out", cut)
    assert code == 0
    surface = level_surface(doc.graph, doc.values["f"], Fraction(1, 3))
    written = graphdoc.load(cut)
    assert written.graph.n == surface.graph.n > 0
    assert set(written.values) == {"f", "g"}
    for name, vals in doc.values.items():
        assert tuple(written.values[name]) == extend_function(vals, surface)


def test_ground_state_16_cell(capsys):
    code, rep = run(capsys, "ground-state", "--graph", "builtin:16-cell")
    assert code == 0
    assert abs(rep["spectral_gap"] - 6) < 1e-8
    assert rep["sphere_verification"]["verdict"] == "yes"
    assert rep["double_nodal"]["verification"]["verdict"] == "yes"
    assert rep["double_nodal"]["error"] is None


def test_cli_contract_holds_for_any_argv(tmp_path_factory):
    """Fuzzed argv lists never escape the exit codes 0, 2, 3 and 4, and every
    one gets a JSON report on stdout; an argparse rejection (exit 4) reports
    a UsageError and prints the usage to stderr."""
    root = tmp_path_factory.mktemp("fuzz")
    not_utf8 = root / "latin1.json"
    not_utf8.write_bytes(b"\xff\xfe{}")
    paths = [str(root), str(root / "missing" / "x"), str(not_utf8)]
    numbers = ["-1", "0", "1", "2", "3", "1/0", "abc"]
    values = {
        "--graph": ["builtin:octahedron", "builtin:16-cell", "builtin:wheel(6)",
                    "builtin:cycle(5)", "builtin:icosahedron", "builtin:cycle", *paths],
        "--function": ["1,2,3,4,5,6", "6,1,5,2,4,3", "1,2,3,4,5,6,7,8", "1,2,3,4,5",
                       "1,1,1,1,1,1", "-1", "1/0", "abc"],
        "--level": ["0", "5/2", "1/2", "-1", "1/0", "abc"],
        "--out": [str(root / "out.off"), str(root / "out.json"), *paths],
        "--format": ["json", "off", "obj", "abc"],
        "--poly": ["x^2+y^2-2", "x*y", "-1", "1/0", "abc", "x^65", "(x^8)^9",
                   "+".join(["x"] * 1000)],
        "--domain": ["-2,2;-2,2", "-2,2", "-1", "1/0", "abc"],
        "--step": ["1", "1/2", "0", "-1", "1/0", "abc"],
        "--bogus": numbers,
    }

    def words(flag):
        if flag == "--periodic":
            return st.just([flag])
        return st.sampled_from(values.get(flag, numbers)).map(lambda value: [flag, value])

    @st.composite
    def argvs(draw):
        command = draw(st.sampled_from(sorted(_COMMANDS)))
        own = [f for f in _COMMANDS[command][1] if f != "--graph"]
        flags = draw(st.lists(st.sampled_from(own), max_size=4)) if own else []
        if "--graph" in _COMMANDS[command][1] and draw(st.integers(0, 9)):
            flags.insert(0, "--graph")
        if not draw(st.integers(0, 5)):  # now and then a foreign or unknown flag
            flags.append(draw(st.sampled_from(sorted(_OPTIONS) + ["--bogus"])))
        return [command] + [word for flag in flags for word in draw(words(flag))]

    @settings(max_examples=150, derandomize=True, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(argvs())
    def check(argv):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as e:
                code = e.code
        assert code in (0, 2, 3, 4), (argv, code)
        report = json.loads(stdout.getvalue())
        assert isinstance(report, dict), argv
        if "usage:" in stderr.getvalue():
            assert code == 4 and report["error"]["type"] == "UsageError", argv

    check()


def test_cli_contract_holds_for_any_graph_document(tmp_path_factory):
    """Fuzzed graph documents of at most 8 vertices (wrong types, bad or
    duplicate edges, bools, non-finite floats, zero denominators, long digit
    strings, huge exponents, ragged or non-finite coordinates, unknown keys,
    a vertex count over the cap) never escape the exit codes 0, 2, 3 and 4, and every one gets one JSON
    object on stdout."""
    path = str(tmp_path_factory.mktemp("docs") / "doc.json")
    huge = "9" * 5000  # over the int-digit limit, as a literal or in a string

    def mostly(good, bad):  # about three draws in four are well formed
        return st.integers(0, 3).flatmap(lambda i: good if i else bad)

    junk = st.sampled_from([None, True, False, "abc", 1.5, [], {}, -1, huge])
    rational = st.one_of(st.integers(-3, 3), st.sampled_from(["1/2", "-7/3", "3", " 2/4 "]))
    # "1e10000000" is over the exponent cap: Fraction alone would take seconds on it
    number = st.one_of(rational, st.sampled_from(["1/0", "x", huge, "@huge@", "1e10000000"]),
                       st.booleans(), st.floats(allow_nan=True, allow_infinity=True))
    non_finite = st.sampled_from([math.nan, math.inf, -math.inf, "1e10000000"])
    vertex = st.one_of(st.integers(-1, 8), junk)
    over_cap = st.just(MAX_VERTICES + 1)  # loaded, it would allocate that many sets
    edge = st.one_of(st.lists(vertex, min_size=2, max_size=2),
                     st.lists(st.integers(0, 7), min_size=0, max_size=3), junk)

    @st.composite
    def documents(draw):
        n = draw(st.integers(0, 8))
        labels = st.lists(st.one_of(st.integers(0, 9), st.text(max_size=2),
                                    st.lists(st.integers(0, 3), max_size=2)),
                          min_size=n, max_size=n)
        simple = st.lists(st.sampled_from(list(combinations(range(n), 2)) or [(0, 1)]),
                          unique=True, max_size=12)
        loose = st.lists(st.lists(st.integers(0, max(n - 1, 0)), min_size=2, max_size=2),
                         max_size=12)  # self-loops and duplicates
        doc = {"vertices": draw(mostly(st.just(n), st.one_of(labels, vertex, over_cap))),
               "edges": draw(mostly(simple.map(lambda es: [list(e) for e in es] if n > 1 else []),
                                    st.one_of(loose, st.lists(edge, max_size=4), junk)))}
        if draw(st.booleans()):
            doc["values"] = draw(mostly(
                st.fixed_dictionaries({"f": st.lists(rational, min_size=n, max_size=n)}),
                st.dictionaries(st.sampled_from(["f", "g"]), st.one_of(
                    st.lists(number, min_size=n, max_size=n), st.lists(number, max_size=9),
                    st.lists(st.one_of(rational, non_finite), min_size=n, max_size=n),
                    junk), max_size=2)))
        if not draw(st.integers(0, 3)):
            point = st.lists(st.floats(-1, 1), min_size=3, max_size=3)
            doc["coordinates"] = draw(mostly(st.lists(point, min_size=n, max_size=n), st.one_of(
                st.lists(st.lists(st.one_of(st.floats(), st.integers(-2, 2), non_finite, junk),
                                  min_size=1, max_size=3), min_size=n, max_size=n),
                st.lists(point, max_size=9), junk)))
        if not draw(st.integers(0, 7)):
            del doc[draw(st.sampled_from(["vertices", "edges"]))]
        if not draw(st.integers(0, 3)):
            doc[draw(st.sampled_from(["format_version", "extra"]))] = draw(
                mostly(st.just(1), st.one_of(st.integers(0, 2), junk)))
        return json.dumps(doc).replace('"@huge@"', huge)

    commands = [["euler"], ["verify"], ["curvature"],
                ["levelset", "--function", "f", "--level", "1/2"]]

    @settings(max_examples=200, derandomize=True, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(documents(), st.sampled_from(commands))
    def check(text, command):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = main(command[:1] + ["--graph", path] + command[1:])
        assert code in (0, 2, 3, 4), (text, command, code)
        assert isinstance(json.loads(stdout.getvalue()), dict), (text, command)

    check()
