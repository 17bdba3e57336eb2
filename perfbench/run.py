#!/usr/bin/env python3
"""Benchmark of levelgraph: five workloads, end-to-end metrics, a traced per-layer run.

    python3 perfbench/run.py                       # all workloads, untraced and traced
    python3 perfbench/run.py --smoke               # all workloads on tiny inputs, one pass
    python3 perfbench/run.py --workload verify --seed 3 --seconds 20 --trace 0

A single workload runs in this process as a closed loop with one caller:
it repeats whole passes over the workload's fixed operation list until
--seconds have gone by, each pass on fresh graph objects and after
topology.clear_caches().  Every pass must repeat the first one's outputs
exactly, and the last pass's outputs go through the independent checker.
The last line of standard output is one JSON object with correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  See README.md for the metrics and
workloads.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# one BLAS thread (never more than the CPUs): set before numpy is imported,
# and inherited by every child process
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from fractions import Fraction  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS, Failure  # noqa: E402

SETUP_SAMPLES = 5

# The host's speed swings by up to 2x for tens of seconds at a time: a
# fixed pure-Python loop takes 1.1 ms in one stretch and 2.1 ms in the next,
# and the passes of a workload follow it.  Untraced runs therefore time a
# reference loop next to the operations (before the first, and before any
# that starts 0.1 s or more after the last sample) and report each timing
# scaled by REFERENCE_S / (the loop's median time next to it): seconds on a
# host that runs the loop in REFERENCE_S, the loop's time here when the host
# is quiet.  The loop is the benchmark's own code and never calls levelgraph.
REFERENCE_S = 0.0011
REFERENCE_EVERY_S = 0.1

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# operations timed one by one in the traced run, per workload
OPS = {"variety": ("sphere", "sphere_off", "curve", "torus", "torus_obj", "sphere4d"),
       "verify": ("sphere", "rsphere", "rs3", "xp4", "torus3d", "torus4", "torus5")}


def _total(name):
    return lambda s: s["total"].get(name, 0.0)


def _own(name):
    return lambda s: s["own"].get(name, 0.0)


def _count(name):
    return lambda s: s["counts"].get(name, 0)


def _with_setup(key, name):
    return lambda s: s[key].get(name, 0.0) + s["setup"][key].get(name, 0.0)


# per-layer metric -> (unit, value from the median traced pass snapshot)
LAYERS = {
    "catalog.build_s": ("s", _with_setup("module_total", "catalog")),
    "core.simplices_s": ("s", _total("core.SimplicialGraph.simplices")),
    "core.simplices": ("count", _count("core.simplices")),
    "core.induced_s": ("s", _total("core.SimplicialGraph.induced")),
    "refine.barycentric_s": ("s", _with_setup("total", "refine.barycentric")),
    "variety.evaluate_s": ("s", _total("variety.Polynomial.evaluate")),
    "variety.evaluations": ("count", _count("variety.evaluations")),
    "sard.pipeline_self_s": ("s", lambda s: s["module_self"].get("sard", 0.0)),
    "levelset.level_surface_self_s": ("s", _own("levelset.level_surface")),
    "levelset.interpolate_s": ("s", _total("levelset.interpolate_coordinates")),
    "levelset.simultaneous_locus_s": ("s", _total("levelset.simultaneous_locus")),
    "levelset.surface_triangles_s": ("s", _total("levelset.surface_triangles")),
    "levelset.surface_vertices": ("count", _count("levelset.surface_vertices")),
    "topology.is_dgraph_s": ("s", _total("topology.is_dgraph")),
    "topology.is_sphere_s": ("s", _total("topology.is_sphere")),
    "topology.is_contractible_s": ("s", _total("topology.is_contractible")),
    "topology.expansions": ("count", _count("topology.expansions")),
    "topology.resource_limits": ("count", _count("topology.resource_limits")),
    "topology.memo_entries": ("count", lambda s: s["memo_entries"]),
    "morse.ph_index_self_s": ("s", _own("morse.ph_index")),
    "morse.ph_sum_check_s": ("s", _total("morse.ph_sum_check")),
    "morse.curvature_s": ("s", _total("morse.curvature")),
    "morse.central_surface_s": ("s", _total("morse.central_surface")),
    "lagrange.max_rank_check_s": ("s", _total("lagrange.max_rank_check")),
    "lagrange.checked": ("count", _count("lagrange.checked")),
    "spectral.eigensolve_s": ("s", _total("spectral.spectrum_of")),
    "spectral.nodal_report_self_s": ("s", _own("spectral.nodal_report")),
    "spectral.ground_state_self_s": ("s", _own("spectral.ground_state_surface")),
    "spectral.max_residual": ("1", _count("spectral.max_residual")),
    "meshio.export_s": ("s", _total("meshio.export_mesh")),
    "meshio.bytes": ("bytes", _count("meshio.bytes")),
    "graphdoc.load_s": ("s", _total("graphdoc.load")),
    "graphdoc.save_s": ("s", _total("graphdoc.save")),
    "cli.import_s": ("s", lambda s: s["import_s"]),
    "cli.cmd_p50_s": ("s", lambda s: s["cmd_p50_s"]),
    "cli.main_s": ("s", _total("cli.main")),
    "cli.report_bytes": ("bytes", lambda s: s["report_bytes"]),
}
LAYERS.update({f"self.{m}_s": ("s", (lambda m: lambda s: s["module_self"].get(m, 0.0))(m))
               for m in spans.MODULES})
LAYERS.update({
    "trace.wall_s": ("s", lambda s: s["wall"]),
    "trace.untraced_wall_s": ("s", lambda s: s["untraced_wall"]),
    "trace.overhead_s": ("s", lambda s: s["wall"] - s["untraced_wall"]),
    "trace.remainder_s": ("s", lambda s: s["wall"] - sum(s["module_self"].values())),
})
LAYERS.update({f"op.{w}.{op}_s": ("s", (lambda w, op: lambda s: s["ops"].get(w, {}).get(op, 0.0))(
    w, op)) for w, ops in OPS.items() for op in ops})


# -- the program -----------------------------------------------------------------


def load_program():
    """Import levelgraph from this checkout's src/, or exit without a result."""
    if not os.path.isfile(os.path.join(SRC, "levelgraph", "__init__.py")):
        print(f"perfbench: no levelgraph sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import levelgraph
    if os.path.dirname(os.path.dirname(os.path.abspath(levelgraph.__file__))) != SRC:
        print(f"perfbench: levelgraph imported from {levelgraph.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return levelgraph


def memo_entries(lg):
    """Entries in topology's module-level memo tables; 0 once they are gone."""
    return sum(len(v) for k, v in vars(lg.topology).items()
               if "memo" in k and isinstance(v, dict))


def fingerprint(r):
    """A small value that every pass of one run must reproduce exactly."""
    try:
        return _fingerprint(r)
    except AttributeError:  # a result field this version of the program lacks
        return type(r).__name__


def _fingerprint(r):
    kind = type(r).__name__
    if r is None or isinstance(r, (tuple, str, int)):
        return r if not isinstance(r, str) else os.path.getsize(r)
    if isinstance(r, Failure):
        return ("failure", r.reason)
    if kind == "VerificationReport":
        return (r.verdict, r.expansions)
    if kind == "SardTrace":
        return tuple(s.surface.graph.n for s in r.stages)
    if kind == "LevelSurfaceGraph":
        return (r.graph.n, r.graph.edge_count())
    if kind == "Spectrum":
        return r.eigenvalues
    if kind == "NodalReport":
        return (r.crossing_edges, r.surface.graph.n, r.cheeger)
    if kind == "GroundState":
        return (r.gap, r.nodal.surface.graph.n, r.sphere.verdict, r.double_components)
    if kind == "IndexReport":
        return (r.index, r.symmetric, r.classification)
    if kind == "CurvatureVector":
        return r.total
    if kind == "MaxRankReport":
        return (r.ok, r.checked)
    if kind == "CliResult":
        try:
            report = json.loads(r.text)
        except ValueError:
            return (r.code, r.text)
        report.pop("timings", None)
        return (r.code, json.dumps(report, sort_keys=True))
    return kind


# -- one workload --------------------------------------------------------------------


def reference_loop():
    """Seconds taken by a fixed loop of Fraction sums and frozenset keys."""
    t = time.perf_counter()
    total, seen = Fraction(0), {}
    for i in range(1, 400):
        total += Fraction(1, i % 37 + 1)
        seen[frozenset((i, i % 7, i % 11))] = total
    return time.perf_counter() - t


def host_scale(samples):
    """REFERENCE_S over the median reference time: the factor that turns a
    timing taken beside these samples into seconds on the reference host."""
    return REFERENCE_S / statistics.median(samples)


def time_setup(args):
    """Seconds from spawning a fresh interpreter until its inputs are built,
    scaled to the reference host by reference loops just before and after."""
    before = [reference_loop() for _ in range(3)]
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up process failed with exit code {proc.returncode}")
    return elapsed * host_scale(before + [reference_loop() for _ in range(3)])


def time_import():
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import levelgraph; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code, SRC], check=True,
                         capture_output=True, text=True).stdout
    return float(out)


def op_failed(workload, name, result):
    if isinstance(result, Failure):
        return True
    return getattr(workload, "failed", lambda name, r: False)(name, result)


def snapshot(tracer, wall, memo, out):
    return {"wall": wall, "total": dict(tracer.total), "own": dict(tracer.own),
            "module_total": dict(tracer.module_total), "module_self": dict(tracer.module_self()),
            "counts": dict(tracer.counts), "memo_entries": memo,
            "report_bytes": sum(len(getattr(r, "text", "")) for r in out.values())}


def measure(lg, workload, inputs, work, args, tracer, setup_samples):
    """Repeat whole passes until args.seconds are used; traced runs alternate
    untraced and traced passes.

    The set-up samples are spread over the run, one before the pass that
    starts each k/setup_samples of it, so that they meet the same load of
    the host as the passes do."""
    untraced, traced = [], []
    setup_times = []
    op_times = {}
    prints = None
    mismatched = set()
    child_rss_kb = 0
    attempted = failed = 0
    in_process = tracer is not None
    calibrating = tracer is None
    start = time.perf_counter()
    i = 0
    while True:
        out = ops = None  # nothing of the last pass stays alive, so peak memory is one pass's
        while (len(setup_times) < setup_samples and time.perf_counter() - start
               >= len(setup_times) * args.seconds / setup_samples):
            setup_times.append(time_setup(args))
        ops = workload.operations(lg, inputs, work, in_process)
        lg.topology.clear_caches()
        tracing = tracer is not None and i % 2 == 1
        if tracing:
            tracer.reset()
            tracer.install()
        out = {}
        times = {}
        references = []
        last_reference = -REFERENCE_EVERY_S
        for name, fn in ops:
            if calibrating and time.perf_counter() - last_reference >= REFERENCE_EVERY_S:
                references.append(reference_loop())
                last_reference = time.perf_counter()
            t = time.perf_counter()
            try:
                result = fn(out)
            except Exception as e:  # a failed operation is counted, the run goes on
                result = Failure(f"{type(e).__name__}: {e}")
            times[name] = time.perf_counter() - t
            out[name] = result
        wall = sum(times.values())
        if tracing:
            tracer.uninstall()
        memo = memo_entries(lg)
        if tracing:
            traced.append(snapshot(tracer, wall, memo, out))
        else:
            untraced.append((wall, memo, host_scale(references) if calibrating else 1.0))
            for name, t in times.items():
                op_times.setdefault(name, []).append(t)
        attempted += len(ops)
        failures = [n for n, r in out.items() if op_failed(workload, n, r)]
        failed += len(failures)
        child_rss_kb = max([child_rss_kb] + [getattr(r, "rss_kb", 0) for r in out.values()])
        fp = {n: fingerprint(r) for n, r in out.items()}
        if prints is None:
            prints = fp
            for n in failures:
                print(f"perfbench: {workload.name}.{n} failed: {out[n]!r}", file=sys.stderr)
        else:
            mismatched |= {n for n in fp if fp[n] != prints.get(n)}
        i += 1
        if (time.perf_counter() - start >= args.seconds and (tracer is None or i >= 2)
                and len(setup_times) == setup_samples):
            break
    return {"untraced": untraced, "traced": traced, "op_times": op_times, "last": out,
            "setup_times": setup_times,
            "mismatched": mismatched, "attempted": attempted, "failed": failed,
            "child_rss_kb": child_rss_kb}


def end_to_end(workload, run):
    wall = statistics.median(w * scale for w, _, scale in run["untraced"])
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload.name == "cli":  # the workload's processes are the commands
        rss_kb = run["child_rss_kb"]
    values = {"wall_s": wall, "setup_s": statistics.median(run["setup_times"]),
              "peak_rss_mb": rss_kb / 1024.0}
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(lg, workload, inputs, work, run, setup_snap, tracer):
    snaps = sorted(run["traced"], key=lambda s: s["wall"])
    snap = snaps[(len(snaps) - 1) // 2]
    snap["setup"] = setup_snap
    snap["untraced_wall"] = statistics.median(w for w, _, _ in run["untraced"])
    snap["memo_entries"] = statistics.median(m for _, m, _ in run["untraced"])
    snap["import_s"] = statistics.median(time_import() for _ in range(3))
    snap["ops"] = {workload.name: {n: statistics.median(ts) for n, ts in run["op_times"].items()}}
    snap["cmd_p50_s"] = 0.0
    if workload.name == "cli":
        # the traced run calls cli.main in process; one pass of subprocesses
        # gives the latency of a command from spawn to exit
        out = {}
        for name, fn in workload.operations(lg, inputs, work, False):
            out[name] = fn(out)
        snap["cmd_p50_s"] = statistics.median(r.seconds for r in out.values())
    if tracer.absent:
        print(f"perfbench: absent from the program: {', '.join(tracer.absent)}", file=sys.stderr)
    return {name: {"value": fn(snap), "unit": unit} for name, (unit, fn) in LAYERS.items()}


def run_workload(args):
    lg = load_program()
    workload = WORKLOADS[args.workload]
    os.makedirs(os.path.join(HERE, "_work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(HERE, "_work"))
    try:
        if args.setup_only:
            workload.setup(lg, args.seed, args.smoke, work)
            print("ready", flush=True)
            return 0
        samples = 0 if args.trace else 1 if args.smoke else SETUP_SAMPLES
        tracer = spans.Tracer(lg) if args.trace else None
        if tracer:
            tracer.install()
        inputs = workload.setup(lg, args.seed, args.smoke, work)
        setup_snap = None
        if tracer:
            tracer.uninstall()
            setup_snap = snapshot(tracer, 0.0, 0, {})
        run = measure(lg, workload, inputs, work, args, tracer, samples)
        answered = {n: Failure("failed") if op_failed(workload, n, r) else r
                    for n, r in run["last"].items()}
        problems = workload.check(inputs, answered)
        problems += [f"{n}: output differs between passes" for n in sorted(run["mismatched"])]
        for p in problems:
            print(f"perfbench: {workload.name}: {p}", file=sys.stderr)
        metrics = (per_layer(lg, workload, inputs, work, run, setup_snap, tracer) if tracer
                   else end_to_end(workload, run))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    import numpy
    env = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
           "passes": len(run["untraced"]) + len(run["traced"]),
           "python": platform.python_version(), "numpy": numpy.__version__,
           "cpus": os.cpu_count(), "blas_threads": BLAS_THREADS}
    print("env " + json.dumps(env))
    print(json.dumps({"correct": not problems, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}), flush=True)
    return 0 if not problems else 1


# -- every workload ----------------------------------------------------------------------


def run_all(args):
    """Each workload in its own process, untraced then traced; a table and a JSON file."""
    if not os.path.isfile(os.path.join(SRC, "levelgraph", "__init__.py")):
        print(f"perfbench: no levelgraph sources under {SRC}", file=sys.stderr)
        return 2
    ok = True
    if args.smoke:
        import selftest
        ok = selftest.main() == 0
    results = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exit code {proc.returncode}", file=sys.stderr)
                ok = False
                if not lines:
                    continue
            result = json.loads(lines[-1])
            env = json.loads(lines[-2][len("env "):])
            ok = ok and result["correct"]
            results.setdefault(name, {})["traced" if trace else "untraced"] = dict(
                result, env=env)
    print(f"{'workload':10s} {'correct':>7s} {'attempted':>9s} {'failed':>6s}  "
          + "  ".join(f"{m} [{u}]" for m, u in END_TO_END) + "  trace overhead [s]")
    for name, r in results.items():
        u, t = r.get("untraced"), r.get("traced")
        if u is None:
            continue
        cells = "  ".join(f"{u['metrics'][m]['value']:>{len(m) + len(unit) + 3}.4f}"
                          for m, unit in END_TO_END)
        overhead = t["metrics"]["trace.overhead_s"]["value"] if t else float("nan")
        print(f"{name:10s} {str(u['correct']):>7s} {u['attempted']:>9d} {u['failed']:>6d}  "
              f"{cells}  {overhead:.4f}")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)
    print(f"per-layer numbers and tracing overhead: {args.out}")
    return 0 if ok else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=["all", *WORKLOADS], default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time per run (default 20, 0 with --smoke)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, one pass")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--out", default=os.path.join(HERE, "results.json"),
                   help="where the run over all workloads writes its numbers")
    args = p.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else 20.0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
