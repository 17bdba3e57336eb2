"""Spans around levelgraph's public functions, installed from outside the program.

The tracer replaces each public function of each module at every module
attribute bound to it (so `levelgraph.sard.level_surface`, the name sard
calls through, is wrapped along with `levelgraph.levelset.level_surface`),
and a few SimplicialGraph / Polynomial methods on their classes.  Spans
nest through a stack: a span's self time is its duration minus the
durations of the spans it caused.  Hooks turn selected results into counts.

A target that a later version of the program no longer has is recorded in
`absent` and skipped; nothing here fails because a name is missing.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict

MODULES = ("core", "catalog", "canonical", "refine", "levelset", "sard", "variety",
           "topology", "morse", "lagrange", "spectral", "meshio", "graphdoc", "cli")

# methods wrapped on their classes; cheap accessors (degree, adjacent, ...)
# are left alone, their time stays with the caller
METHODS = (("core", "SimplicialGraph", "simplices"),
           ("core", "SimplicialGraph", "induced"),
           ("core", "SimplicialGraph", "unit_sphere"),
           ("core", "SimplicialGraph", "edges"),
           ("variety", "Polynomial", "evaluate"))


def _total_simplices(result):
    return sum(len(group) for group in result)


def _verdicts(tracer, report):
    tracer.count("topology.expansions", getattr(report, "expansions", 0) or 0)
    if getattr(report, "verdict", None) == "resource_limit":
        tracer.count("topology.resource_limits", 1)


def _surface(tracer, surface):
    graph = getattr(surface, "graph", None)
    tracer.count("levelset.surface_vertices", getattr(graph, "n", 0))


def _spectrum(tracer, spec):
    residuals = getattr(spec, "residuals", None) or (0.0,)
    tracer.peak("spectral.max_residual", max(residuals))


def _max_rank(tracer, report):
    tracer.count("lagrange.checked", getattr(report, "checked", 0) or 0)


def _export(tracer, path):
    try:
        tracer.count("meshio.bytes", os.path.getsize(path))
    except (OSError, TypeError):
        pass


# span name -> hook(tracer, result), applied to every traced call's result
HOOKS = {
    "core.SimplicialGraph.simplices": lambda t, r: t.count("core.simplices", _total_simplices(r)),
    "variety.Polynomial.evaluate": lambda t, r: t.count("variety.evaluations", 1),
    "topology.is_sphere": _verdicts,
    "topology.is_dgraph": _verdicts,
    "topology.is_contractible": _verdicts,
    "levelset.level_surface": _surface,
    "levelset.simultaneous_locus": _surface,
    "spectral.spectrum_of": _spectrum,
    "lagrange.max_rank_check": _max_rank,
    "meshio.export_mesh": _export,
}


class Tracer:
    def __init__(self, package):
        self.package = package
        self.absent = []
        self._patches = []   # (owner, attribute, original, wrapper, span name)
        self._stack = []
        self.reset()
        self._plan()

    # -- bookkeeping ---------------------------------------------------------

    def reset(self):
        self.total = defaultdict(float)   # span name -> inclusive seconds
        self.own = defaultdict(float)     # span name -> self seconds
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.module_total = defaultdict(float)  # module -> seconds inside its outermost spans
        self._depth = defaultdict(int)

    def count(self, name, amount):
        self.counts[name] += amount

    def peak(self, name, value):
        self.counts[name] = max(self.counts[name], value)

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        module = name.split(".", 1)[0]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            self._depth[module] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += span
                self._depth[module] -= 1
                if not self._depth[module]:
                    self.module_total[module] += span
                self.total[name] += span
                self.own[name] += span - children
                self.calls[name] += 1
            if hook is not None:
                hook(self, result)
            return result

        return traced

    # -- installation --------------------------------------------------------

    def _plan(self):
        mods = {}
        for short in MODULES:
            try:
                mods[short] = importlib.import_module(f"{self.package.__name__}.{short}")
            except ImportError:
                self.absent.append(short)
        namespaces = [self.package] + list(mods.values())
        for short, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not callable(fn) or isinstance(fn, type):
                    continue
                if getattr(fn, "__module__", None) != mod.__name__:
                    continue  # imported from elsewhere; wrapped where it is defined
                name = f"{short}.{attr}"
                wrapper = self._wrap(name, fn)
                for ns in namespaces:
                    for bound, value in list(vars(ns).items()):
                        if value is fn:
                            self._patches.append((ns, bound, fn, wrapper, name))
        for short, cls_name, meth in METHODS:
            name = f"{short}.{cls_name}.{meth}"
            cls = getattr(mods.get(short), cls_name, None)
            fn = vars(cls).get(meth) if isinstance(cls, type) else None
            if fn is None:
                self.absent.append(name)
                continue
            self._patches.append((cls, meth, fn, self._wrap(name, fn), name))
        names = {p[4] for p in self._patches}
        self.absent += [name for name in HOOKS if name not in names]

    def install(self):
        for owner, attr, _, wrapper, _ in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _, _ in self._patches:
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def module_self(self):
        """Self seconds per module, keyed by the module's short name."""
        out = defaultdict(float)
        for name, secs in self.own.items():
            out[name.split(".", 1)[0]] += secs
        return out
