"""Command line driver: every pipeline behind a subcommand.

Reports are JSON on stdout (rationals as "p/q" strings, timings under a
separate key so fixed-seed runs stay bitwise comparable); progress notes
go to stderr.  Exit codes: 0 success, 2 a verification verdict was "no",
3 a verification ran out of budget, 4 bad input.  Bad input, rejected
arguments included, gets a JSON "error" block on stdout.

Only what every command needs is imported at the top.  Each handler
imports the modules it runs when it runs, so `levelgraph euler` loads
neither the verifier nor numpy, and a handler calls whatever a module
attribute holds at that moment (perfbench's tracer wraps them there).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Sequence

from . import graphdoc
from .core import _alternating_sum, euler_characteristic
from .errors import LevelGraphError, InputError, UsageError
from .rational import as_fraction, fraction_text

if TYPE_CHECKING:
    from .core import SimplicialGraph
    from .topology import VerificationReport

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
        return fraction_text(x)
    raise TypeError(f"{type(x).__name__} is not JSON serializable")


def _load_graph(spec: str) -> graphdoc.GraphDocument:
    if spec.startswith("builtin:"):
        from .catalog import build
        return graphdoc.GraphDocument(build(spec[len("builtin:"):]))
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
    f_vector = g.f_vector()
    return {
        "n": g.n,
        "edges": g.edge_count(),
        "dimension": len(f_vector) - 1,
        "f_vector": list(f_vector),
        "euler_characteristic": _alternating_sum(f_vector),
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
    from .topology import components
    block = _graph_block(g)
    comps = components(g)
    block["components"] = len(comps)
    if block["dimension"] == 1 and all(g.degree(v) == 2 for v in range(g.n)):
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
            from .meshio import export_mesh
            export_mesh(target, fmt, args.out)
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


# ---------------------------------------------------------------- commands

def _cmd_verify(args, doc) -> tuple[dict, int]:
    from .topology import is_dgraph
    dim = args.dim if args.dim is not None else doc.graph.dimension()
    report = is_dgraph(doc.graph, dim, budget=args.budget)
    return {"dimension": dim, "verification": _verdict_block(report)}, _verdict_exit(report)


def _cmd_euler(args, doc) -> tuple[dict, int]:
    return {}, EXIT_OK


def _cmd_curvature(args, doc) -> tuple[dict, int]:
    from .morse import curvature
    k = curvature(doc.graph)
    return {"curvature": k.values, "total": k.total,
            "matches_euler_characteristic": k.total == euler_characteristic(doc.graph)}, EXIT_OK


def _cmd_refine(args, doc) -> tuple[dict, int]:
    from .refine import barycentric, extend_function
    refined = barycentric(doc.graph)
    out = {"refined": _graph_block(refined.graph)}
    # the extended functions are only written, so they are only computed for --out
    values = {name: extend_function(vals, refined)
              for name, vals in doc.values.items()} if args.out else None
    _export(refined.graph, args, out, values=values)
    return out, EXIT_OK


def _cmd_levelset(args, doc) -> tuple[dict, int]:
    from .levelset import level_surface
    from .topology import is_dgraph
    f, c = _one_cut(args, doc)
    surface = level_surface(doc.graph, f, c)
    verdict = is_dgraph(surface.graph, doc.graph.dimension() - 1, budget=args.budget)
    out = {"level": c, "surface": _surface_block(surface.graph),
           "verification": _verdict_block(verdict)}
    _export(surface, args, out, args.format)
    return out, _verdict_exit(verdict)


def _cmd_simultaneous(args, doc) -> tuple[dict, int]:
    from .levelset import simultaneous_locus
    from .topology import is_dgraph
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
    from .sard import sard_pipeline
    fs = [_function_values(doc, name) for name in args.function]
    trace = sard_pipeline(doc.graph, fs, args.level, budget=args.budget)
    out = {"extension_rule": trace.extension_rule}
    code = _stages(trace, args, out, excluded=True)
    return out, code


def _cmd_lagrange(args, doc) -> tuple[dict, int]:
    from .lagrange import lagrange_candidates, max_rank_check, strong_injectivity_check
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
        out["candidates"] = lagrange_candidates(doc.graph, fs[0], fs[1])
    return out, EXIT_OK


def _cmd_variety(args, doc) -> tuple[dict, int]:
    from .variety import triangulate_variety
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
    from .spectral import eigenfunction_principle_check, spectrum_of
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
    from .spectral import nodal_report
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
    from .spectral import ground_state_surface
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
    target, values = doc.graph, doc.values
    out = {}
    if args.function or args.level:
        from .levelset import level_surface
        from .refine import extend_function
        f, c = _one_cut(args, doc)
        target = level_surface(doc.graph, f, c)
        out["surface"] = _surface_block(target.graph)
        # the document's functions, extended to the surface as refine --out does
        values = {name: extend_function(vals, target) for name, vals in doc.values.items()}
    fmt = args.format or "obj"
    _export(target, args, out, fmt, values)
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
_EXPORT = ("--out", "--format")

# each subcommand accepts exactly the options its handler reads
_COMMANDS = {
    "verify": (_cmd_verify, ("--graph", "--dim", "--budget")),
    "euler": (_cmd_euler, ("--graph",)),
    "curvature": (_cmd_curvature, ("--graph",)),
    "refine": (_cmd_refine, ("--graph", "--out")),
    "levelset": (_cmd_levelset, _CUT + ("--budget",) + _EXPORT),
    "simultaneous": (_cmd_simultaneous, _CUT + ("--budget",) + _EXPORT),
    "sard": (_cmd_sard, _CUT + ("--budget",) + _EXPORT),
    "lagrange": (_cmd_lagrange, _CUT),
    "variety": (_cmd_variety,
                ("--poly", "--domain", "--step", "--periodic", "--budget") + _EXPORT),
    "spectrum": (_cmd_spectrum, ("--graph",)),
    "nodal": (_cmd_nodal, ("--graph", "--k", "--seed") + _EXPORT),
    "ground-state": (_cmd_ground_state, ("--graph", "--seed", "--budget") + _EXPORT),
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
        if "--budget" in options and args.budget is not None and args.budget < 0:
            raise InputError(f"budget must not be negative, got {args.budget}")
        doc = _load_graph(args.graph) if "--graph" in options else None
        body, code = handler(args, doc)
        report = {"command": args.command}
        if doc is not None:
            # after the handler: a command that lists the complex has cached
            # it, and the f-vector is read from it instead of counted
            report["graph"] = _graph_block(doc.graph)
        report.update(body, timings={"total_s": round(time.perf_counter() - start, 6)})
        # in the try: a rational too long to write is bad input like any other
        text = json.dumps(report, indent=2, default=_json_default)
        note = f"exit {code}"
    except LevelGraphError as e:
        text = json.dumps({"command": args.command,
                           "error": {"type": type(e).__name__, "message": str(e)}}, indent=2)
        code = EXIT_INPUT
        note = f"{type(e).__name__}: {e}"
    print(text)
    prog = f"levelgraph {args.command}" if args.command else "levelgraph"
    print(f"{prog}: {note}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
