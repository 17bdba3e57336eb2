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


def _json_default(x):
    """Write a Fraction as "p/q"; json.dumps calls this for what it cannot encode."""
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    raise TypeError(f"{type(x).__name__} is not JSON serializable")


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


def _export(target, args, report: dict, fmt: Optional[str] = None,
            values: Optional[dict] = None) -> None:
    """Write target to --out, as a graph document (the default) or a mesh, and
    record the path in the report; without --out nothing is written."""
    if not args.out:
        return
    try:
        if (fmt or "json") == "json":
            g = getattr(target, "graph", target)
            graphdoc.save(graphdoc.GraphDocument(g, values or {}), args.out)
        else:
            export_mesh(target, fmt, args.out, budget=args.budget)
    except OSError as e:
        raise InputError(f"cannot write {args.out}: {e.strerror}") from None
    report["out"] = args.out


def _one_cut(args, doc: graphdoc.GraphDocument) -> tuple[list[Fraction], Fraction]:
    """The single --function and --level that levelset and export take."""
    if len(args.function) != 1 or len(args.level) != 1:
        raise InputError(f"{args.command} needs exactly one --function and one --level")
    return _function_values(doc, args.function[0]), as_fraction(args.level[0])


def _stages(trace, args, report: dict, excluded: bool = False) -> int:
    """Put the per-stage blocks of a Sard trace in the report, export the last
    stage's surface, and return the exit code of the stage verdicts."""
    report["stages"] = [
        {"stage": s.function_index, "level": s.level, "perturbed": s.perturbed,
         **({"excluded_values": s.excluded} if excluded else {}),
         "surface": _surface_block(s.surface.graph),
         "verification": _verdict_block(s.verdict)}
        for s in trace.stages]
    _export(trace.stages[-1].surface, args, report, args.format)
    return _verdict_exit(*(s.verdict for s in trace.stages))


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

def _cmd_verify(args, doc) -> tuple[dict, int]:
    dim = args.dim if args.dim is not None else doc.graph.dimension()
    report = is_dgraph(doc.graph, dim, budget=args.budget)
    return {"dimension": dim, "verification": _verdict_block(report)}, _verdict_exit(report)


def _cmd_euler(args, doc) -> tuple[dict, int]:
    return {}, EXIT_OK


def _cmd_curvature(args, doc) -> tuple[dict, int]:
    k = curvature(doc.graph)
    return {"curvature": k.values, "total": k.total,
            "matches_euler_characteristic": k.total == euler_characteristic(doc.graph)}, EXIT_OK


def _cmd_refine(args, doc) -> tuple[dict, int]:
    refined = barycentric(doc.graph)
    out = {"refined": _graph_block(refined.graph)}
    # the extended functions are only written, so they are only computed for --out
    values = {name: extend_function(vals, refined)
              for name, vals in doc.values.items()} if args.out else None
    _export(refined.graph, args, out, values=values)
    return out, EXIT_OK


def _cmd_levelset(args, doc) -> tuple[dict, int]:
    f, c = _one_cut(args, doc)
    surface = level_surface(doc.graph, f, c)
    verdict = is_dgraph(surface.graph, doc.graph.dimension() - 1, budget=args.budget)
    out = {"level": c, "surface": _surface_block(surface.graph),
           "verification": _verdict_block(verdict)}
    _export(surface, args, out, args.format)
    return out, _verdict_exit(verdict)


def _cmd_simultaneous(args, doc) -> tuple[dict, int]:
    fs = [_function_values(doc, name) for name in args.function]
    cs = [as_fraction(c) for c in args.level]
    locus = simultaneous_locus(doc.graph, fs, cs)
    verdict = is_dgraph(locus.graph, doc.graph.dimension() - len(fs),
                        budget=args.budget)
    out = {"levels": cs, "locus": _surface_block(locus.graph),
           "verification": _verdict_block(verdict)}
    _export(locus, args, out, args.format)
    return out, _verdict_exit(verdict)


def _cmd_sard(args, doc) -> tuple[dict, int]:
    fs = [_function_values(doc, name) for name in args.function]
    trace = sard_pipeline(doc.graph, fs, args.level, budget=args.budget)
    out = {"extension_rule": trace.extension_rule}
    code = _stages(trace, args, out, excluded=True)
    return out, code


def _cmd_lagrange(args, doc) -> tuple[dict, int]:
    fs = [_function_values(doc, name) for name in args.function]
    rank = max_rank_check(doc.graph, fs, args.level or None)
    injectivity = {"global": strong_injectivity_check(doc.graph, fs, "global").passed}
    try:
        injectivity["per_simplex"] = strong_injectivity_check(doc.graph, fs, "per_simplex").passed
    except InputError as e:  # over the subset-check cap: the rest of the report stands
        injectivity.update(per_simplex=None, per_simplex_error=str(e))
    out = {"max_rank": {"ok": rank.ok, "checked": rank.checked, "simplex": rank.simplex,
                        "root": rank.root, "dependent": rank.dependent},
           "injectivity": injectivity}
    if len(fs) == 2 and doc.graph.dimension() == 2:
        out["candidates"] = lagrange_candidates(doc.graph, fs[0], fs[1], budget=args.budget)
    return out, EXIT_OK


def _cmd_variety(args, doc) -> tuple[dict, int]:
    box = []
    for i, axis in enumerate(args.domain.split(";")):
        parts = [p.strip() for p in axis.split(",")]
        if len(parts) != 2:
            raise InputError(f"domain axis {i}: expected \"lo,hi\", got {axis!r}")
        box.append((as_fraction(parts[0]), as_fraction(parts[1])))
    trace = triangulate_variety(args.poly, box, as_fraction(args.step),
                                periodic=args.periodic, budget=args.budget)
    out = {"polynomials": args.poly, "grid": _graph_block(trace.graph)}
    code = _stages(trace, args, out)
    return out, code


def _cmd_spectrum(args, doc) -> tuple[dict, int]:
    spec = spectrum_of(doc.graph)
    principle = eigenfunction_principle_check(doc.graph, spec)
    out = {"eigenvalues": [float(x) for x in spec.eigenvalues],
           "max_residual": max(spec.residuals, default=0.0),
           "solver": "eigh",
           "eigenfunction_principle": [
               {"vertex": v, "eigenvalue": lam, "abs_value": a}
               for v, lam, a in principle]}
    return out, EXIT_OK


def _cmd_nodal(args, doc) -> tuple[dict, int]:
    report = nodal_report(doc.graph, args.k,
                          perturb=args.seed is not None,
                          seed=args.seed if args.seed is not None else 0)
    out = {"k": report.k,
           "eigenvalue": report.eigenvalue,
           "positive_components": report.positive_components,
           "negative_components": report.negative_components,
           "zero_vertices": report.zero_vertices,
           "perturbed": report.perturbed,
           "seed": report.seed,
           "crossing_edges": report.crossing_edges,
           "positive_simplices": report.positive_simplices,
           "negative_simplices": report.negative_simplices,
           "cheeger": report.cheeger,
           "surface": _surface_block(report.surface.graph)}
    _export(report.surface, args, out, args.format)
    return out, EXIT_OK


def _cmd_ground_state(args, doc) -> tuple[dict, int]:
    gs = ground_state_surface(doc.graph, seed=args.seed if args.seed is not None else 0,
                              budget=args.budget)
    out = {"spectral_gap": gs.gap,
           "nodal": {
               "positive_components": gs.nodal.positive_components,
               "negative_components": gs.nodal.negative_components,
               "perturbed": gs.nodal.perturbed,
               "cheeger": gs.nodal.cheeger,
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
    _export(gs.nodal.surface, args, out, args.format)
    # experimental harness: "no" is a finding, not a failure; budget overruns still exit 3
    code = EXIT_RESOURCE if gs.sphere.verdict == "resource_limit" else EXIT_OK
    return out, code


def _cmd_export(args, doc) -> tuple[dict, int]:
    if not args.out:
        raise InputError("export needs --out FILE")
    target = doc.graph
    out = {}
    if args.function or args.level:
        f, c = _one_cut(args, doc)
        target = level_surface(doc.graph, f, c)
        out["surface"] = _surface_block(target.graph)
    fmt = args.format or "obj"
    _export(target, args, out, fmt)
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
    "--step": dict(required=True),
    "--domain": dict(required=True, help='box as "a,b;a,b;..."'),
    "--poly": dict(action="append", required=True,
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
        report = {"command": args.command}
        doc = None
        if "--graph" in options:
            doc = _load_graph(args.graph)
            report["graph"] = _graph_block(doc.graph)
        body, code = handler(args, doc)
        report.update(body, timings={"total_s": round(time.perf_counter() - start, 6)})
        note = f"exit {code}"
    except LevelGraphError as e:
        report = {"command": args.command,
                  "error": {"type": type(e).__name__, "message": str(e)}}
        code = EXIT_INPUT
        note = f"{type(e).__name__}: {e}"
    print(json.dumps(report, indent=2, default=_json_default))
    prog = f"levelgraph {args.command}" if args.command else "levelgraph"
    print(f"{prog}: {note}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
