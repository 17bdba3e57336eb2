"""Command line driver: every pipeline behind a subcommand.

Reports are JSON on stdout (rationals as "p/q" strings, timings under a
separate key so fixed-seed runs stay bitwise comparable); progress notes
go to stderr.  Exit codes: 0 success, 2 a verification verdict was "no",
3 a verification ran out of budget, 4 bad input.  Bad input, rejected
arguments included, gets a JSON "error" block on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from typing import Optional, Sequence

from . import catalog, graphdoc
from .core import SimplicialGraph, euler_characteristic
from .errors import LevelGraphError, InputError, UsageError
from .lagrange import lagrange_candidates, max_rank_check, strong_injectivity_check
from .levelset import level_surface, simultaneous_locus
from .meshio import export_mesh
from .morse import curvature
from .rational import as_fraction
from .refine import barycentric, extend_function
from .sard import sard_pipeline
from .spectral import (eigenfunction_principle_check, ground_state_surface,
                       nodal_report, spectrum_of)
from .topology import VerificationReport, components, is_dgraph
from .variety import triangulate_variety

EXIT_OK = 0
EXIT_NO = 2
EXIT_RESOURCE = 3
EXIT_INPUT = 4


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # accept values like "-2,2;-2,2" or "-1/2" after an option; stock
        # argparse only forgives a leading dash on plain negative numbers,
        # and it installs the matcher as an instance attribute
        self._negative_number_matcher = re.compile(r"^-[\d.,;/x\-]+$")

    def error(self, message):  # reported by main like any bad input: JSON and exit 4
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _rat(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _load_graph(spec: str) -> graphdoc.GraphDocument:
    if spec.startswith("builtin:"):
        return graphdoc.GraphDocument(catalog.build(spec[len("builtin:"):]))
    try:
        return graphdoc.load(spec)
    except FileNotFoundError:
        raise InputError(f"graph file not found: {spec}") from None
    except OSError as e:
        raise InputError(f"cannot read graph file {spec}: {e.strerror}") from None
    except UnicodeDecodeError:
        raise InputError(f"graph file is not UTF-8 text: {spec}") from None


@contextmanager
def _writing(path: str):
    try:
        yield
    except OSError as e:
        raise InputError(f"cannot write {path}: {e.strerror}") from None


def _function_values(doc: graphdoc.GraphDocument, name: str) -> list[Fraction]:
    if name in doc.values:
        return doc.values[name]
    if "," in name:
        parts = [p.strip() for p in name.split(",")]
        if len(parts) != doc.graph.n:
            raise InputError(f"inline function has {len(parts)} values, "
                             f"graph has {doc.graph.n} vertices")
        return [as_fraction(p) for p in parts]
    known = ", ".join(sorted(doc.values)) or "none"
    raise InputError(f"unknown function {name!r} (document has: {known})")


def _graph_block(g: SimplicialGraph) -> dict:
    return {
        "n": g.n,
        "edges": g.edge_count(),
        "dimension": g.dimension(),
        "f_vector": list(g.f_vector()),
        "euler_characteristic": euler_characteristic(g),
    }


def _verdict_block(r: VerificationReport) -> dict:
    return {"verdict": r.verdict, "dimension": r.dimension,
            "witness": r.witness, "expansions": r.expansions}


def _verdict_exit(*reports: VerificationReport) -> int:
    if any(r.verdict == "no" for r in reports):
        return EXIT_NO
    if any(r.verdict == "resource_limit" for r in reports):
        return EXIT_RESOURCE
    return EXIT_OK


def _surface_block(g: SimplicialGraph) -> dict:
    block = _graph_block(g)
    comps = components(g)
    block["components"] = len(comps)
    if g.n > 0 and g.dimension() == 1 and all(g.degree(v) == 2 for v in range(g.n)):
        block["cycle_lengths"] = sorted(len(c) for c in comps)
    return block


def _export(graph_or_surface, fmt: str, args) -> None:
    with _writing(args.out):
        if fmt == "json":
            g = getattr(graph_or_surface, "graph", graph_or_surface)
            graphdoc.save(graphdoc.GraphDocument(g), args.out)
        else:
            export_mesh(graph_or_surface, fmt, args.out, budget=args.budget)


def _maybe_export(graph_or_surface, args, report: dict) -> None:
    if not args.out:
        return
    _export(graph_or_surface, args.format or "json", args)
    report["out"] = args.out


def _budget(args) -> Optional[int]:
    """The --budget flag, else SARD_BUDGET, else None (the library default)."""
    if args.budget is not None:
        budget = args.budget
    else:
        env = os.environ.get("SARD_BUDGET")
        if not env:
            return None
        try:
            budget = int(env)
        except ValueError:
            raise InputError(f"SARD_BUDGET must be an integer, got {env!r}") from None
    if budget < 0:
        raise InputError(f"budget must not be negative, got {budget}")
    return budget


# ---------------------------------------------------------------- commands

def _cmd_verify(args) -> tuple[dict, int]:
    doc = _load_graph(args.graph)
    dim = args.dim if args.dim is not None else doc.graph.dimension()
    report = is_dgraph(doc.graph, dim, budget=args.budget)
    out = {"graph": _graph_block(doc.graph), "dimension": dim,
           "verification": _verdict_block(report)}
    return out, _verdict_exit(report)


def _cmd_euler(args) -> tuple[dict, int]:
    doc = _load_graph(args.graph)
    return {"graph": _graph_block(doc.graph)}, EXIT_OK


def _cmd_curvature(args) -> tuple[dict, int]:
    doc = _load_graph(args.graph)
    k = curvature(doc.graph)
    chi = euler_characteristic(doc.graph)
    return {"graph": _graph_block(doc.graph),
            "curvature": [_rat(x) for x in k.values],
            "total": _rat(k.total),
            "matches_euler_characteristic": k.total == chi}, EXIT_OK


def _cmd_refine(args) -> tuple[dict, int]:
    doc = _load_graph(args.graph)
    refined = barycentric(doc.graph)
    out = {"graph": _graph_block(doc.graph), "refined": _graph_block(refined.graph)}
    if args.out:
        values = {name: extend_function(vals, refined)
                  for name, vals in doc.values.items()}
        with _writing(args.out):
            graphdoc.save(graphdoc.GraphDocument(refined.graph, values), args.out)
        out["out"] = args.out
    return out, EXIT_OK


def _cmd_levelset(args) -> tuple[dict, int]:
    doc = _load_graph(args.graph)
    if len(args.function) != 1 or len(args.level) != 1:
        raise InputError("levelset needs exactly one --function and one --level")
    f = _function_values(doc, args.function[0])
    c = as_fraction(args.level[0])
    surface = level_surface(doc.graph, f, c)
    verdict = is_dgraph(surface.graph, doc.graph.dimension() - 1, budget=args.budget)
    out = {"graph": _graph_block(doc.graph), "level": _rat(c),
           "surface": _surface_block(surface.graph),
           "verification": _verdict_block(verdict)}
    _maybe_export(surface, args, out)
    return out, _verdict_exit(verdict)


def _cmd_simultaneous(args) -> tuple[dict, int]:
    doc = _load_graph(args.graph)
    if not args.function or len(args.function) != len(args.level):
        raise InputError("simultaneous needs matching --function/--level lists")
    fs = [_function_values(doc, name) for name in args.function]
    cs = [as_fraction(c) for c in args.level]
    locus = simultaneous_locus(doc.graph, fs, cs)
    verdict = is_dgraph(locus.graph, doc.graph.dimension() - len(fs),
                        budget=args.budget)
    out = {"graph": _graph_block(doc.graph),
           "levels": [_rat(c) for c in cs],
           "locus": _surface_block(locus.graph),
           "verification": _verdict_block(verdict)}
    _maybe_export(locus, args, out)
    return out, _verdict_exit(verdict)


def _cmd_sard(args) -> tuple[dict, int]:
    doc = _load_graph(args.graph)
    if not args.function or len(args.function) != len(args.level):
        raise InputError("sard needs matching --function/--level lists")
    fs = [_function_values(doc, name) for name in args.function]
    cs = [as_fraction(c) for c in args.level]
    trace = sard_pipeline(doc.graph, fs, cs, budget=args.budget)
    stages = []
    for s in trace.stages:
        stages.append({
            "stage": s.function_index,
            "level": _rat(s.level),
            "perturbed": s.perturbed,
            "excluded_values": [_rat(x) for x in s.excluded],
            "surface": _surface_block(s.surface.graph),
            "verification": _verdict_block(s.verdict),
        })
    out = {"graph": _graph_block(doc.graph),
           "extension_rule": trace.extension_rule, "stages": stages}
    _maybe_export(trace.stages[-1].surface, args, out)
    return out, _verdict_exit(*(s.verdict for s in trace.stages))


def _cmd_lagrange(args) -> tuple[dict, int]:
    doc = _load_graph(args.graph)
    if not args.function:
        raise InputError("lagrange needs at least one --function")
    fs = [_function_values(doc, name) for name in args.function]
    levels = [as_fraction(x) for x in args.level] if args.level else None
    if levels is not None and len(levels) != len(fs):
        raise InputError("need one --level per --function")
    rank = max_rank_check(doc.graph, fs, levels)
    out = {"graph": _graph_block(doc.graph),
           "max_rank": {"ok": rank.ok, "checked": rank.checked,
                        "simplex": list(rank.simplex) if rank.simplex else None,
                        "root": rank.root,
                        "dependent": list(rank.dependent)},
           "injectivity": {
               "global": strong_injectivity_check(doc.graph, fs, "global").passed,
               "per_simplex": strong_injectivity_check(doc.graph, fs, "per_simplex").passed,
           }}
    if len(fs) == 2 and doc.graph.dimension() == 2:
        cands = lagrange_candidates(doc.graph, fs[0], fs[1], budget=args.budget)
        out["candidates"] = [list(t) for t in cands]
    return out, EXIT_OK


def _cmd_variety(args) -> tuple[dict, int]:
    if not args.poly:
        raise InputError("variety needs at least one --poly")
    if not args.domain:
        raise InputError("variety needs --domain \"a,b;a,b;...\"")
    if not args.step:
        raise InputError("variety needs --step")
    box = []
    for i, axis in enumerate(args.domain.split(";")):
        parts = [p.strip() for p in axis.split(",")]
        if len(parts) != 2:
            raise InputError(f"domain axis {i}: expected \"lo,hi\", got {axis!r}")
        box.append((as_fraction(parts[0]), as_fraction(parts[1])))
    trace = triangulate_variety(args.poly, box, as_fraction(args.step),
                                periodic=args.periodic, budget=args.budget)
    stages = [{"stage": s.function_index, "level": _rat(s.level),
               "perturbed": s.perturbed,
               "surface": _surface_block(s.surface.graph),
               "verification": _verdict_block(s.verdict)}
              for s in trace.stages]
    out = {"polynomials": list(args.poly), "grid": _graph_block(trace.graph),
           "stages": stages}
    _maybe_export(trace.stages[-1].surface, args, out)
    return out, _verdict_exit(*(s.verdict for s in trace.stages))


def _cmd_spectrum(args) -> tuple[dict, int]:
    doc = _load_graph(args.graph)
    spec = spectrum_of(doc.graph)
    principle = eigenfunction_principle_check(doc.graph, spec)
    out = {"graph": _graph_block(doc.graph),
           "eigenvalues": [float(x) for x in spec.eigenvalues],
           "max_residual": max(spec.residuals, default=0.0),
           "solver": "eigh",
           "eigenfunction_principle": [
               {"vertex": v, "eigenvalue": lam, "abs_value": a}
               for v, lam, a in principle]}
    return out, EXIT_OK


def _cmd_nodal(args) -> tuple[dict, int]:
    doc = _load_graph(args.graph)
    report = nodal_report(doc.graph, args.k,
                          perturb=args.seed is not None,
                          seed=args.seed if args.seed is not None else 0)
    out = {"graph": _graph_block(doc.graph),
           "k": report.k,
           "eigenvalue": report.eigenvalue,
           "positive_components": report.positive_components,
           "negative_components": report.negative_components,
           "zero_vertices": list(report.zero_vertices),
           "perturbed": report.perturbed,
           "seed": report.seed,
           "crossing_edges": report.crossing_edges,
           "positive_simplices": report.positive_simplices,
           "negative_simplices": report.negative_simplices,
           "cheeger": None if report.cheeger is None else _rat(report.cheeger),
           "surface": _surface_block(report.surface.graph)}
    _maybe_export(report.surface, args, out)
    return out, EXIT_OK


def _cmd_ground_state(args) -> tuple[dict, int]:
    doc = _load_graph(args.graph)
    gs = ground_state_surface(doc.graph, seed=args.seed if args.seed is not None else 0,
                              budget=args.budget)
    out = {"graph": _graph_block(doc.graph),
           "spectral_gap": gs.gap,
           "nodal": {
               "positive_components": gs.nodal.positive_components,
               "negative_components": gs.nodal.negative_components,
               "perturbed": gs.nodal.perturbed,
               "cheeger": None if gs.nodal.cheeger is None else _rat(gs.nodal.cheeger),
               "surface": _surface_block(gs.nodal.surface.graph),
           },
           "sphere_verification": _verdict_block(gs.sphere)}
    if doc.graph.dimension() == 3:
        out["double_nodal"] = {
            "components": gs.double_components,
            "verification": None if gs.double_verdict is None
            else _verdict_block(gs.double_verdict),
            "error": gs.double_error,
        }
    _maybe_export(gs.nodal.surface, args, out)
    # experimental harness: "no" is a finding, not a failure; budget overruns still exit 3
    code = EXIT_RESOURCE if gs.sphere.verdict == "resource_limit" else EXIT_OK
    return out, code


def _cmd_export(args) -> tuple[dict, int]:
    doc = _load_graph(args.graph)
    if not args.out:
        raise InputError("export needs --out FILE")
    target = doc.graph
    out = {"graph": _graph_block(doc.graph)}
    if args.function or args.level:
        if len(args.function) != 1 or len(args.level) != 1:
            raise InputError("export takes one --function with one --level")
        f = _function_values(doc, args.function[0])
        target = level_surface(doc.graph, f, as_fraction(args.level[0]))
        out["surface"] = _surface_block(target.graph)
    fmt = args.format or "obj"
    _export(target, fmt, args)
    out["out"] = args.out
    out["format"] = fmt
    return out, EXIT_OK


_OPTIONS = {
    "--graph": dict(required=True, help="graph document path or builtin:<name>"),
    "--function": dict(action="append", default=[],
                       help="named function from the document, or inline "
                            "comma-separated rationals (repeatable, ordered)"),
    "--level": dict(action="append", default=[], help="level as p/q (repeatable, ordered)"),
    "--dim": dict(type=int, default=None),
    "--k": dict(type=int, default=2, help="eigenvector index"),
    "--seed": dict(type=int, default=None),
    "--budget": dict(type=int, default=None),
    "--out": dict(default=None),
    "--format": dict(choices=["off", "obj", "json"], default=None),
    "--periodic": dict(action="store_true"),
    "--step": dict(default=None),
    "--domain": dict(default=None, help='box as "a,b;a,b;..."'),
    "--poly": dict(action="append", default=[],
                   help="polynomial in x1..xd / x,y,z,w (repeatable)"),
}

_CUT = ("--graph", "--function", "--level")
_EXPORT = ("--out", "--format", "--budget")  # --budget bounds the mesh export's surface check

# each subcommand accepts exactly the options its handler reads
_COMMANDS = {
    "verify": (_cmd_verify, ("--graph", "--dim", "--budget")),
    "euler": (_cmd_euler, ("--graph",)),
    "curvature": (_cmd_curvature, ("--graph",)),
    "refine": (_cmd_refine, ("--graph", "--out")),
    "levelset": (_cmd_levelset, _CUT + _EXPORT),
    "simultaneous": (_cmd_simultaneous, _CUT + _EXPORT),
    "sard": (_cmd_sard, _CUT + _EXPORT),
    "lagrange": (_cmd_lagrange, _CUT + ("--budget",)),
    "variety": (_cmd_variety, ("--poly", "--domain", "--step", "--periodic") + _EXPORT),
    "spectrum": (_cmd_spectrum, ("--graph",)),
    "nodal": (_cmd_nodal, ("--graph", "--k", "--seed") + _EXPORT),
    "ground-state": (_cmd_ground_state, ("--graph", "--seed") + _EXPORT),
    "export": (_cmd_export, _CUT + _EXPORT),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="levelgraph",
                     description="Level surfaces, curvature, Sard pipelines and "
                                 "spectra on discrete d-graphs.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (_, options) in _COMMANDS.items():
        p = sub.add_parser(name)
        for option in options:
            p.add_argument(option, **_OPTIONS[option])
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    # argparse names the command here before it parses the command's flags,
    # so a rejected flag is still reported under its command
    args = argparse.Namespace(command=None)
    start = time.perf_counter()
    try:
        _build_parser().parse_args(argv, args)
        handler, options = _COMMANDS[args.command]
        if "--budget" in options:
            args.budget = _budget(args)
        report, code = handler(args)
    except LevelGraphError as e:
        report = {"command": args.command,
                  "error": {"type": type(e).__name__, "message": str(e)}}
        print(json.dumps(report, indent=2))
        prog = f"levelgraph {args.command}" if args.command else "levelgraph"
        print(f"{prog}: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INPUT
    report = {"command": args.command, **report,
              "timings": {"total_s": round(time.perf_counter() - start, 6)}}
    print(json.dumps(report, indent=2))
    print(f"levelgraph {args.command}: exit {code}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
