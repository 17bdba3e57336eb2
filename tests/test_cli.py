"""Command line driver: JSON reports, exit codes, reproducibility.

Exit code contract: 0 success, 2 some verification said "no", 3 budget
exhausted, 4 bad input (including argparse errors, remapped from the
stock exit 2 to avoid colliding with the verdict code).
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from levelgraph.cli import _COMMANDS, _OPTIONS, main

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


def test_budget_env_var(capsys, monkeypatch):
    monkeypatch.setenv("SARD_BUDGET", "0")
    code, rep = run(capsys, "verify", "--graph", "builtin:16-cell")
    assert code == 3
    assert rep["verification"]["verdict"] == "resource_limit"


def test_missing_file_reports_json_error(capsys):
    code, rep = run(capsys, "verify", "--graph", "/no/such/file.json")
    assert code == 4
    assert rep["error"]["type"] == "InputError"
    assert "file.json" in rep["error"]["message"]


OCTAHEDRON_EDGES = [[u, v] for u in range(6) for v in range(u + 1, 6) if u + v != 5]


MISSING_DIR = "<missing>/x"  # a path under a directory that does not exist


@pytest.mark.parametrize("graph, budget_env, argv", [
    pytest.param("builtin:cycle", None, ("verify",), id="cycle-no-arg"),
    pytest.param("builtin:wheel(x)", None, ("verify",), id="wheel-non-int"),
    pytest.param("builtin:cycle(5,6)", None, ("verify",), id="cycle-extra-arg"),
    pytest.param("builtin:kuhn(4x4,periodc)", None, ("verify",), id="kuhn-bad-flag"),
    pytest.param({"coordinates": [["a", 0, 0]] * 6}, None, ("verify",), id="coord-non-numeric"),
    pytest.param({"coordinates": [1, 2, 3, 4, 5, 6]}, None, ("verify",), id="coord-scalar"),
    pytest.param({"coordinates": [[1, 0, 0]] * 5 + [[0, 1]]}, None, ("verify",),
                 id="coord-ragged"),
    pytest.param("builtin:octahedron", "abc", ("verify",), id="budget-env-non-int"),
    pytest.param("builtin:octahedron", "-1", ("verify",), id="budget-env-negative"),
    pytest.param("builtin:octahedron", None, ("verify", "--budget", "-1"),
                 id="budget-flag-negative"),
    pytest.param("builtin:octahedron", None, ("nodal", "--budget", "-1"),
                 id="budget-flag-negative-unused"),
    pytest.param(None, None, ("verify",), id="graph-is-directory"),
    pytest.param(b"\xff\xfe{}", None, ("verify",), id="graph-not-utf8"),
    pytest.param("builtin:octahedron", None, ("refine", "--out", MISSING_DIR),
                 id="refine-out-missing-dir"),
    pytest.param("builtin:octahedron", None, ("export", "--out", MISSING_DIR),
                 id="export-out-missing-dir"),
    pytest.param("builtin:octahedron", None, ("levelset", "--function", "1,2,3,4,5,6",
                                              "--level", "5/2", "--out", MISSING_DIR),
                 id="levelset-out-missing-dir"),
])
def test_malformed_input_exits_4(capsys, monkeypatch, tmp_path, graph, budget_env, argv):
    path = tmp_path / "graph.json"
    if graph is None:
        graph = str(tmp_path)
    elif isinstance(graph, bytes):
        path.write_bytes(graph)
        graph = str(path)
    elif isinstance(graph, dict):
        path.write_text(json.dumps({"vertices": 6, "edges": OCTAHEDRON_EDGES, **graph}))
        graph = str(path)
    if budget_env is not None:
        monkeypatch.setenv("SARD_BUDGET", budget_env)
    rest = [a.replace("<missing>", str(tmp_path / "missing")) for a in argv[1:]]
    code, rep = run(capsys, argv[0], "--graph", graph, *rest)
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


def test_export_off_file(capsys, tmp_path):
    out = str(tmp_path / "oct.off")
    code, rep = run(capsys, "export", "--graph", "builtin:octahedron",
                    "--format", "off", "--out", out)
    assert code == 0 and rep["out"] == out
    with open(out) as fh:
        assert fh.readline() == "OFF\n"
        assert fh.readline() == "6 8 0\n"


def test_levelset_json_export(capsys, tmp_path):
    out = str(tmp_path / "surface.json")
    code, rep = run(capsys, "levelset", "--graph", "builtin:octahedron",
                    "--function", "1,2,3,4,5,6", "--level", "5/2",
                    "--format", "json", "--out", out)
    assert code == 0 and rep["out"] == out
    with open(out) as fh:
        doc = json.load(fh)
    assert len(doc["vertices"]) == 12  # labeled by originating simplex


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
        "--poly": ["x^2+y^2-2", "x*y", "-1", "1/0", "abc"],
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
    @given(argvs(), st.sampled_from([None, None, None, "0", "5", "-1", "abc"]))
    def check(argv, budget_env):
        stdout, stderr = io.StringIO(), io.StringIO()
        with pytest.MonkeyPatch.context() as mp, \
                contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            if budget_env is None:
                mp.delenv("SARD_BUDGET", raising=False)
            else:
                mp.setenv("SARD_BUDGET", budget_env)
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
