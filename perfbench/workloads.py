"""The five benchmark workloads.

Each workload has three parts:

- ``setup(lg, seed, smoke, work)`` builds the inputs once: catalog graphs,
  refinements, parsed polynomials, seeded functions, the CLI graph
  document.  Graphs are kept as recipes (vertex count, edges, labels,
  coordinates).
- ``operations(lg, inputs, work, in_process)`` is called before every pass,
  outside the timed region.  It builds fresh graph objects from the
  recipes, so no pass sees a clique complex or unit sphere cached by an
  earlier one, and returns the pass as a list of ``(name, fn)``; ``fn``
  receives the results of the earlier operations of the same pass.
- ``check(inputs, results)`` compares the last pass's results with
  ``check.py``, which does not import levelgraph.  It returns a list of
  problems.

Every call into levelgraph goes through a module attribute looked up at
call time (``lg.topology.is_sphere``), so the tracer's wrappers see it.
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import combinations

import check as C

ZERO_TOL = 1e-9


class Failure:
    """An operation that raised, or returned no definitive answer."""

    def __init__(self, reason):
        self.reason = reason

    def __repr__(self):
        return f"Failure({self.reason!r})"


# -- helpers -------------------------------------------------------------------


def recipe(g):
    edges = [(u, v) for u in range(g.n) for v in g.neighbors[u] if u < v]
    return (g.n, edges, g.labels, g.coordinates)


def fresh(lg, rec):
    return lg.core.SimplicialGraph(*rec)


def plain(g):
    """Adjacency sets of a program graph, read from its public fields."""
    return [set(nb) for nb in g.neighbors]


def rng_for(seed, name):
    return random.Random(f"{seed}/{name}")


def injective(rng, n):
    return [Fraction(v) for v in rng.sample(range(-10 ** 6, 10 ** 6), n)]


def gap_levels(values, quantiles):
    vals = sorted(set(values))
    out = []
    for q in quantiles:
        i = min(max(int(q * len(vals)), 0), len(vals) - 2)
        out.append((vals[i] + vals[i + 1]) / 2)
    return out


def shifted(var, a):
    if a == 0:
        return var
    sign = "-" if a > 0 else "+"
    return f"({var}{sign}{abs(a.numerator)}/{a.denominator})"


def problems_of(fn, *args):
    try:
        fn(*args)
    except C.CheckError as e:
        return [str(e)]
    return []


# -- variety -------------------------------------------------------------------


class Variety:
    """Kuhn-grid triangulations of polynomial zero sets, with mesh export."""

    name = "variety"

    def setup(self, lg, seed, smoke, work):
        rng = rng_for(seed, "variety")
        # a seeded shift of every centre by a multiple of 1/32 keeps sizes
        # nearly constant while moving which grid simplices straddle
        a, b, c, e = (Fraction(rng.randint(-4, 4), 32) for _ in range(4))
        X, Y, Z, W = shifted("x", a), shifted("y", b), shifted("z", c), shifted("w", e)
        sphere = (f"{X}^2+{Y}^2+{Z}^2-2",
                  lambda x, y, z: (x - a) ** 2 + (y - b) ** 2 + (z - c) ** 2 - 2)
        plane = (f"{X}+1/3*{Y}+1/7*{Z}-1/5",
                 lambda x, y, z: (x - a) + Fraction(1, 3) * (y - b) + Fraction(1, 7) * (z - c)
                 - Fraction(1, 5))
        torus = (f"({X}^2+{Y}^2+{Z}^2+3)^2-16*({X}^2+{Y}^2)",
                 lambda x, y, z: ((x - a) ** 2 + (y - b) ** 2 + (z - c) ** 2 + 3) ** 2
                 - 16 * ((x - a) ** 2 + (y - b) ** 2))
        sphere4 = (f"{X}^2+{Y}^2+{Z}^2+{W}^2-2",
                   lambda x, y, z, w: (x - a) ** 2 + (y - b) ** 2 + (z - c) ** 2 + (w - e) ** 2 - 2)
        fine = Fraction(1) if smoke else Fraction(1, 2)
        coarse = Fraction(2) if smoke else Fraction(1)
        box3 = [(Fraction(-2), Fraction(2))] * 3
        boxt = [(Fraction(-4), Fraction(4))] * 2 + [(Fraction(-2), Fraction(2))]
        box4 = [(Fraction(-2), Fraction(2))] * 4
        cases = {
            "sphere": ([sphere], box3, fine, 2, 2),   # polys, box, step, chi, final dim
            "curve": ([sphere, plane], box3, fine, 0, 1),
            "torus": ([torus], boxt, fine, 0, 2),
            "sphere4d": ([sphere4], box4, coarse, 0, 3),
        }
        parsed = {name: [lg.variety.parse_polynomial(text, len(box)) for text, _ in polys]
                  for name, (polys, box, *_rest) in cases.items()}
        return {"cases": cases, "parsed": parsed}

    def operations(self, lg, inputs, work, in_process):
        cases, parsed = inputs["cases"], inputs["parsed"]

        def triangulate(name):
            _, box, step, _, _ = cases[name]
            return lambda out: lg.variety.triangulate_variety(parsed[name], box, step)

        def export(name, fmt):
            path = os.path.join(work, f"{name}.{fmt}")
            return lambda out: lg.meshio.export_mesh(out[name].stages[-1].surface, fmt, path)

        return [("sphere", triangulate("sphere")),
                ("sphere_off", export("sphere", "off")),
                ("curve", triangulate("curve")),
                ("torus", triangulate("torus")),
                ("torus_obj", export("torus", "obj")),
                ("sphere4d", triangulate("sphere4d"))]

    def check(self, inputs, results):
        problems = []
        for name, (polys, box, step, chi, dim) in inputs["cases"].items():
            trace = results[name]
            if isinstance(trace, Failure):
                continue
            problems += [f"{name}: {p}" for p in
                         problems_of(self._check_trace, trace, polys, box, step, chi, dim)]
        for name, mesh, parse in (("sphere", "sphere_off", C.parse_off),
                                  ("torus", "torus_obj", C.parse_obj)):
            if isinstance(results[mesh], Failure) or isinstance(results[name], Failure):
                continue
            g = results[name].stages[-1].surface.graph
            adj = plain(g)
            with open(results[mesh], encoding="utf-8") as fh:
                points, faces = parse(fh.read())
            fv = C.f_vector(adj)
            problems += [f"{mesh}: {p}" for p in problems_of(
                C.check_mesh, points, faces, g.coordinates, fv[2] if len(fv) > 2 else 0,
                C.euler(adj))]
        return problems

    @staticmethod
    def _check_trace(trace, polys, box, step, chi, dim):
        lo = [b[0] for b in box]
        sizes = [int((hi - l) / step) + 1 for l, hi in box]
        values = [C.grid_values(fn, lo, step, sizes) for _, fn in polys]
        first = trace.stages[0]
        want = C.kuhn_straddle_count(values[0], sizes, first.level > 0)
        C.require(first.surface.graph.n == want,
                  f"stage 1 has {first.surface.graph.n} vertices, {want} straddling simplices")
        C.require(all(s.verdict is not None and s.verdict.ok for s in trace.stages),
                  "a stage verdict is not 'yes'")
        final = trace.stages[-1].surface.graph
        adj = plain(final)
        C.require(C.is_dgraph(adj, dim), f"final stage is not a {dim}-graph")
        if dim >= 2:
            # chi names a closed surface only when it is connected.  A
            # two-stage curve may carry a small extra circle near the
            # variety (seeds 12 and 16): Sard's theorem makes the level set
            # a 1-graph, a union of circles, each with chi 0, not one circle.
            C.require(C.component_count(adj) == 1, "final stage is not connected")
        # chi of the verified closed manifold: V - E for curves, V - E/3 for
        # surfaces (each edge in two triangles); closed 3-manifolds have chi 0
        edges = sum(len(a) for a in adj) // 2
        got = {1: final.n - edges, 2: final.n - edges // 3}.get(dim, 0)
        C.require(got == chi, f"final stage has chi {got}, expected {chi}")
        for vals in values:
            C.check_near_zero_set(final.coordinates, lo, step, sizes, vals)


# -- verify --------------------------------------------------------------------


TORUS5_BUDGET = 1000


class Verify:
    """Global sphere and d-graph verdicts on large inputs."""

    name = "verify"

    def setup(self, lg, seed, smoke, work):
        rng = rng_for(seed, "verify")
        # the largest input is fixed; the seed picks the random spheres
        step = Fraction(2) if smoke else Fraction(1)
        big = lg.variety.triangulate_variety(["(x-1/8)^2+(y-1/16)^2+(z+1/32)^2-2"],
                                             [(-2, 2)] * 3, step).final
        s1, s2 = rng.randrange(10 ** 6), rng.randrange(10 ** 6)
        graphs = {
            "sphere": (big, 2, None),  # graph, dimension, budget
            "rsphere": (lg.catalog.random_sphere(s1, 20 if smoke else 300), 2, None),
            "rs3": (lg.catalog.suspension(lg.catalog.random_sphere(s2, 10 if smoke else 100)),
                    3, None),
            "xp4": (lg.catalog.cross_polytope(3 if smoke else 4), None, None),
            "torus3d": (lg.catalog.kuhn_grid(3, (4, 4, 4) if smoke else (5, 5, 5),
                                             periodic=True), 3, None),
            "torus4": (lg.catalog.kuhn_grid(2, (4, 4), periodic=True), 2, None),
            "torus5": (lg.catalog.kuhn_grid(2, (5, 5), periodic=True), 2,
                       50 if smoke else TORUS5_BUDGET),
        }
        return {name: (recipe(g), d if d is not None else g.dimension(), budget)
                for name, (g, d, budget) in graphs.items()}

    def operations(self, lg, inputs, work, in_process):
        ops = []
        for name, (rec, d, budget) in inputs.items():
            g = fresh(lg, rec)
            if name == "torus3d":
                ops.append((name, lambda out, g=g, d=d: lg.topology.is_dgraph(g, d)))
            else:
                ops.append((name, lambda out, g=g, d=d, b=budget: lg.topology.is_sphere(
                    g, d, budget=b)))
        return ops

    def check(self, inputs, results):
        problems = []
        for name, (rec, d, _) in inputs.items():
            report = results[name]
            if isinstance(report, Failure):
                continue
            adj = C.adjacency(rec[0], rec[1])
            want = C.is_dgraph(adj, d) if name == "torus3d" else C.sphere_verdict(adj, d)
            if want is None:
                problems.append(f"{name}: checker cannot decide this input")
            elif report.verdict != ("yes" if want else "no"):
                problems.append(f"{name}: verdict {report.verdict}, checker says {want}")
        return problems

    @staticmethod
    def failed(name, result):
        return getattr(result, "verdict", None) == "resource_limit"


# -- spectral ------------------------------------------------------------------


class Spectral:
    """Eigensolver, nodal reports and ground-state nodal surfaces."""

    name = "spectral"

    def setup(self, lg, seed, smoke, work):
        rng = rng_for(seed, "spectral")
        oct1 = lg.refine.barycentric(lg.catalog.octahedron()).graph
        rs = lg.catalog.random_sphere(rng.randrange(10 ** 6), 8 if smoke else 50)
        c16 = (lg.catalog.cross_polytope(3) if smoke
               else lg.refine.barycentric(lg.catalog.cross_polytope(3)).graph)
        return {"graphs": {"oct1": recipe(oct1), "rs": recipe(rs), "c16": recipe(c16)},
                "seed": rng.randrange(10 ** 6)}

    def operations(self, lg, inputs, work, in_process):
        g = {name: fresh(lg, rec) for name, rec in inputs["graphs"].items()}
        s = inputs["seed"]
        sp = lg.spectral

        def spectrum(name):
            return lambda out: sp.spectrum_of(g[name])

        def nodal(name, k):
            return lambda out: sp.nodal_report(g[name], k, perturb=True, seed=s + k,
                                               spectrum=out[f"{name}.spectrum"])

        return [("oct1.spectrum", spectrum("oct1")),
                ("oct1.nodal2", nodal("oct1", 2)),
                ("oct1.nodal3", nodal("oct1", 3)),
                ("oct1.nodal4", nodal("oct1", 4)),
                ("rs.spectrum", spectrum("rs")),
                ("rs.nodal2", nodal("rs", 2)),
                ("c16.spectrum", spectrum("c16")),
                ("c16.ground", lambda out: sp.ground_state_surface(
                    g["c16"], seed=s, spectrum=out["c16.spectrum"]))]

    def check(self, inputs, results):
        problems = []
        for name, rec in inputs["graphs"].items():
            adj = C.adjacency(rec[0], rec[1])
            spec = results[f"{name}.spectrum"]
            if isinstance(spec, Failure):
                continue
            try:
                eigenvalues = C.check_spectrum(adj, spec.eigenvalues, spec.eigenvectors)
            except C.CheckError as e:
                problems.append(f"{name}.spectrum: {e}")
                continue
            for op, result in results.items():
                if not op.startswith(name + ".") or isinstance(result, Failure):
                    continue
                if op.endswith(".ground"):
                    problems += [f"{op}: {p}" for p in problems_of(
                        self._check_ground, adj, eigenvalues, result)]
                elif ".nodal" in op:
                    problems += [f"{op}: {p}" for p in problems_of(
                        self._check_nodal, adj, eigenvalues, result)]
        return problems

    @staticmethod
    def _check_nodal(adj, eigenvalues, report):
        k = report.k
        C.require(abs(report.eigenvalue - eigenvalues[k - 1]) <= 1e-8,
                  f"eigenvalue {report.eigenvalue} != {eigenvalues[k - 1]}")
        pos, neg = C.signed_component_counts(adj, report.vector, ZERO_TOL)
        C.require((report.positive_components, report.negative_components) == (pos, neg),
                  "signed component counts differ")
        rat = report.rational
        C.require(all(x != 0 for x in rat), "rationalized vector has a zero")
        C.require(all(abs(float(r) - v) <= 2e-6 for r, v in zip(rat, report.vector)),
                  "rationalized vector is not a small perturbation of the eigenvector")
        crossing = sum(1 for v in range(len(adj)) for u in adj[v]
                       if u > v and (rat[u] > 0) != (rat[v] > 0))
        C.require(report.crossing_edges == crossing, "crossing edge count differs")
        surf = report.surface.graph
        C.require(surf.n == C.straddle_count(adj, rat, 0), "nodal surface vertex count differs")
        d = len(C.f_vector(adj)) - 1
        C.require(C.is_dgraph(plain(surf), d - 1), f"nodal surface is not a {d - 1}-graph")
        top = C.cliques(adj)[d]
        ps = sum(1 for s in top if all(rat[v] > 0 for v in s))
        ns = sum(1 for s in top if all(rat[v] < 0 for v in s))
        cheeger = Fraction(crossing, min(ps, ns)) if min(ps, ns) else None
        C.require(report.cheeger == cheeger, "Cheeger ratio differs")

    @classmethod
    def _check_ground(cls, adj, eigenvalues, gs):
        C.require(abs(gs.gap - eigenvalues[1]) <= 1e-8, "spectral gap differs")
        cls._check_nodal(adj, eigenvalues, gs.nodal)
        d = len(C.f_vector(adj)) - 1
        surf = plain(gs.nodal.surface.graph)
        want = C.sphere_verdict(surf, d - 1)
        if want is not None and gs.sphere.verdict in ("yes", "no"):
            C.require(gs.sphere.verdict == ("yes" if want else "no"),
                      f"ground-state sphere verdict {gs.sphere.verdict}, checker says {want}")
        if gs.double is not None:
            final = plain(gs.double.final)
            C.require(C.is_dgraph(final, d - 2), "double nodal surface is not a graph of d-2")
            C.require(gs.double_components == C.component_count(final),
                      "double nodal component count differs")


# -- sweep ---------------------------------------------------------------------


PH_BUDGET = 100


class Sweep:
    """Thousands of small seeded calls: level sets, indices, curvature, rank scans."""

    name = "sweep"

    def setup(self, lg, seed, smoke, work):
        rng = rng_for(seed, "sweep")
        cat = lg.catalog
        graphs = {
            "rs": cat.random_sphere(rng.randrange(10 ** 6), 20 if smoke else 200),
            "rs3": cat.suspension(cat.random_sphere(rng.randrange(10 ** 6), 4 if smoke else 40)),
            "c16": lg.refine.barycentric(cat.cross_polytope(3)).graph,
            "t3": cat.kuhn_grid(3, (4, 4, 4) if smoke else (5, 5, 5), periodic=True),
            "xp4": cat.cross_polytope(4),
        }
        cases = {}
        for name, g in graphs.items():
            f = injective(rng, g.n)
            verts = range(0, g.n, 8) if smoke else range(g.n)
            cases[name] = {"recipe": recipe(g), "d": g.dimension(), "f": f,
                           "levels": gap_levels(f, (0.25, 0.5, 0.75)), "verts": verts}
        c16 = graphs["c16"]
        family = [injective(rng, c16.n) for _ in range(3 if smoke else 6)]
        # levels low in the value range keep loci small, so that about half
        # the pairs pass the max-rank check and reach simultaneous_locus
        return {"cases": cases, "family": family,
                "family_levels": [gap_levels(f, (0.05,))[0] for f in family]}

    def operations(self, lg, inputs, work, in_process):
        ops = []
        L, T, M = lg.levelset, lg.topology, lg.morse
        graphs = {}
        for name, case in inputs["cases"].items():
            g = graphs[name] = fresh(lg, case["recipe"])
            f, d = case["f"], case["d"]
            for i, c in enumerate(case["levels"]):
                ls = f"{name}.ls{i}"
                ops.append((ls, lambda out, g=g, f=f, c=c: L.level_surface(g, f, c)))
                ops.append((f"{name}.dg{i}", lambda out, ls=ls, d=d: T.is_dgraph(
                    out[ls].graph, d - 1)))
            ops.append((f"{name}.phsum", lambda out, g=g, f=f: M.ph_sum_check(g, f)))
            ops.append((f"{name}.curv", lambda out, g=g: M.curvature(g)))
            for x in case["verts"]:
                ops.append((f"{name}.ph{x}", lambda out, g=g, f=f, x=x: M.ph_index(
                    g, f, x, budget=PH_BUDGET)))
                ops.append((f"{name}.cs{x}", lambda out, g=g, f=f, x=x: M.central_surface(g, f, x)))
        g = graphs["c16"]
        fam, lev = inputs["family"], inputs["family_levels"]
        for i, j in combinations(range(len(fam)), 2):
            rank = f"rank{i}.{j}"
            ops.append((rank, lambda out, i=i, j=j: lg.lagrange.max_rank_check(
                g, [fam[i], fam[j]], [lev[i], lev[j]])))
            ops.append((f"locus{i}.{j}", lambda out, i=i, j=j, rank=rank: (
                L.simultaneous_locus(g, [fam[i], fam[j]], [lev[i], lev[j]])
                if out[rank].ok else None)))
        return ops

    def check(self, inputs, results):
        problems = []
        for name, case in inputs["cases"].items():
            problems += [f"{name}: {p}" for p in problems_of(
                self._check_case, name, case, results)]
        c16 = inputs["cases"]["c16"]["recipe"]
        adj = C.adjacency(c16[0], c16[1])
        fam, lev = inputs["family"], inputs["family_levels"]
        for i, j in combinations(range(len(fam)), 2):
            locus = results[f"locus{i}.{j}"]
            if locus is None or isinstance(locus, Failure):
                continue
            # a locus passing the max-rank check is a (d-2)-graph
            want = C.locus_count(adj, [fam[i], fam[j]], [lev[i], lev[j]], 2)
            if locus.graph.n != want:
                problems.append(f"locus{i}.{j}: {locus.graph.n} vertices, expected {want}")
            if not C.is_dgraph(plain(locus.graph), 1):
                problems.append(f"locus{i}.{j}: not a 1-graph")
        return problems

    @staticmethod
    def _check_case(name, case, results):
        rec, f, d = case["recipe"], case["f"], case["d"]
        adj = C.adjacency(rec[0], rec[1])
        chi = C.euler(adj)
        for i, c in enumerate(case["levels"]):
            surf = results[f"{name}.ls{i}"]
            # Sard: the level set is empty or a (d-1)-graph
            C.require(surf.graph.n == C.straddle_count(adj, f, c), f"ls{i}: vertex count")
            C.require(C.is_dgraph(plain(surf.graph), d - 1), f"ls{i}: not a {d - 1}-graph")
            C.require(results[f"{name}.dg{i}"].verdict == "yes", f"dg{i}: verdict is not 'yes'")
        total = sum(1 - C.sublevel_euler(adj, f, x) for x in range(len(adj)))
        C.require(total == chi, f"Poincare-Hopf sum {total} != chi {chi}")
        C.require(results[f"{name}.phsum"] == (total, chi), "ph_sum_check differs")
        curv = results[f"{name}.curv"]
        C.require(sum(curv.values) == chi == curv.total, "Gauss-Bonnet sum differs from chi")
        C.require(all(curv.values[x] == C.curvature(adj, x) for x in range(len(adj))),
                  "curvature values differ")
        neg = [-x for x in f]
        for x in case["verts"]:
            rep = results[f"{name}.ph{x}"]
            chi_minus = C.sublevel_euler(adj, f, x)
            C.require(rep.index == 1 - chi_minus, f"index at {x}")
            C.require(rep.symmetric == Fraction(2 - chi_minus - C.sublevel_euler(adj, neg, x), 2),
                      f"symmetric index at {x}")
            if rep.classification == "regular":
                C.require(chi_minus == 1, f"'regular' at {x} with chi(S-) = {chi_minus}")
            B = results[f"{name}.cs{x}"].graph
            nb = sorted(adj[x])
            C.require(B.n == C.straddle_count(C.link(adj, x), [f[v] for v in nb], f[x]),
                      f"central surface size at {x}")
            chi_b = C.euler(plain(B))
            want = 1 - Fraction(chi_b, 2) if d % 2 == 0 else -Fraction(chi_b, 2)
            C.require(rep.symmetric == want, f"central-surface identity at {x}")


# -- cli -----------------------------------------------------------------------


LEVEL = "1/3"


class CliResult:
    def __init__(self, code, text, seconds, rss_kb=0):
        self.code, self.text, self.seconds, self.rss_kb = code, text, seconds, rss_kb


class Cli:
    """A fixed list of levelgraph commands, each a subprocess."""

    name = "cli"

    def setup(self, lg, seed, smoke, work):
        rng = rng_for(seed, "cli")
        g = lg.refine.barycentric(lg.catalog.octahedron()).graph
        # coordinate-driven values with a seeded injective tie-break: both
        # level sets at 1/3 cut the sphere near a great circle for every seed
        f = [Fraction(1000 * round(1000 * p[0]) + t)
             for p, t in zip(g.coordinates, rng.sample(range(g.n), g.n))]
        h = [Fraction(1000 * round(1000 * p[1]) + t)
             for p, t in zip(g.coordinates, rng.sample(range(g.n), g.n))]
        doc = os.path.join(work, "doc.json")
        lg.graphdoc.save(lg.graphdoc.GraphDocument(g, {"f": f, "g": h}), doc)
        s = str(rng.randrange(10 ** 6))
        step = "1" if smoke else "1/2"
        F = ["--function", "f", "--function", "g", "--level", LEVEL, "--level", LEVEL]
        commands = {
            "verify": ["verify", "--graph", "builtin:16-cell"],
            "euler": ["euler", "--graph", doc],
            "curvature": ["curvature", "--graph", doc],
            "refine": ["refine", "--graph", doc, "--out", os.path.join(work, "refined.json")],
            "levelset": ["levelset", "--graph", doc, "--function", "f", "--level", LEVEL],
            "simultaneous": ["simultaneous", "--graph", doc] + F,
            "sard": ["sard", "--graph", doc] + F,
            "lagrange": ["lagrange", "--graph", doc] + F,
            "variety": ["variety", "--poly", "x^2+y^2+z^2-2", "--domain", "-2,2;-2,2;-2,2",
                        "--step", step],
            "spectrum": ["spectrum", "--graph", doc],
            "nodal": ["nodal", "--graph", doc, "--k", "2", "--seed", s],
            "ground-state": ["ground-state", "--graph", "builtin:16-cell", "--seed", s],
            "export": ["export", "--graph", doc, "--format", "off",
                       "--out", os.path.join(work, "mesh.off")],
        }
        return {"commands": commands, "recipe": recipe(g), "f": f, "g": h, "step": step,
                "src": os.path.dirname(os.path.dirname(lg.__file__))}

    def operations(self, lg, inputs, work, in_process):
        run = self._in_process if in_process else self._subprocess
        return [(name, (lambda argv: lambda out: run(lg, inputs, argv))(argv))
                for name, argv in inputs["commands"].items()]

    @staticmethod
    def _subprocess(lg, inputs, argv):
        env = dict(os.environ, PYTHONPATH=inputs["src"])
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "levelgraph.cli"] + argv, env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        text = proc.stdout.read().decode()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return CliResult(proc.returncode, text, time.perf_counter() - start, usage.ru_maxrss)

    @staticmethod
    def _in_process(lg, inputs, argv):
        buf = io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(buf), redirect_stderr(io.StringIO()):
            code = lg.cli.main(argv)
        return CliResult(code, buf.getvalue(), time.perf_counter() - start)

    @staticmethod
    def failed(name, result):
        return result.code != 0

    def check(self, inputs, results):
        problems = []
        for name, result in results.items():
            if isinstance(result, Failure) or result.code != 0:
                continue
            try:
                report = json.loads(result.text)
                getattr(self, "_check_" + name.replace("-", "_"))(inputs, report)
            except (ValueError, KeyError, TypeError) as e:
                problems.append(f"{name}: unreadable report ({type(e).__name__}: {e})")
            except C.CheckError as e:
                problems.append(f"{name}: {e}")
        return problems

    # one invariant set per command; adj and values come from the setup, not the report

    @staticmethod
    def _doc(inputs):
        rec = inputs["recipe"]
        return C.adjacency(rec[0], rec[1])

    def _check_verify(self, inputs, r):
        C.require(r["verification"]["verdict"] == "yes", "16-cell is not a 3-graph")
        C.require(r["graph"]["euler_characteristic"] == 0, "chi(16-cell) != 0")

    def _check_euler(self, inputs, r):
        adj = self._doc(inputs)
        C.require(r["graph"]["f_vector"] == C.f_vector(adj), "f-vector differs")
        C.require(r["graph"]["euler_characteristic"] == C.euler(adj), "chi differs")

    def _check_curvature(self, inputs, r):
        adj = self._doc(inputs)
        got = [Fraction(x) for x in r["curvature"]]
        C.require(got == [C.curvature(adj, x) for x in range(len(adj))], "curvature differs")
        C.require(Fraction(r["total"]) == C.euler(adj), "Gauss-Bonnet total differs from chi")

    def _check_refine(self, inputs, r):
        n = sum(C.f_vector(self._doc(inputs)))
        C.require(r["refined"]["n"] == n, "refined vertex count differs")
        C.require(r["refined"]["euler_characteristic"] == C.euler(self._doc(inputs)),
                  "refinement changed chi")
        with open(r["out"], encoding="utf-8") as fh:
            doc = json.load(fh)
        count = doc["vertices"] if isinstance(doc["vertices"], int) else len(doc["vertices"])
        C.require(count == n, "written document size")
        C.require(all(len(doc["values"][k]) == n for k in ("f", "g")), "written functions")

    def _check_levelset(self, inputs, r):
        adj = self._doc(inputs)
        want = C.straddle_count(adj, inputs["f"], Fraction(LEVEL))
        C.require(r["surface"]["n"] == want, "level surface size differs")
        C.require(sum(r["surface"].get("cycle_lengths", [])) == want
                  and min(r["surface"].get("cycle_lengths", [4])) >= 4, "not a 1-graph")
        C.require(r["verification"]["verdict"] == "yes", "verdict is not 'yes'")

    def _check_simultaneous(self, inputs, r):
        want = C.locus_count(self._doc(inputs), [inputs["f"], inputs["g"]],
                             [Fraction(LEVEL)] * 2, 2)
        C.require(r["locus"]["n"] == want, "locus size differs")
        C.require(r["verification"]["verdict"] == "yes", "verdict is not 'yes'")

    def _check_sard(self, inputs, r):
        want = C.straddle_count(self._doc(inputs), inputs["f"], Fraction(LEVEL))
        C.require(r["stages"][0]["surface"]["n"] == want, "stage 1 size differs")
        C.require(all(s["verification"]["verdict"] == "yes" for s in r["stages"]),
                  "a stage verdict is not 'yes'")
        C.require(r["stages"][-1]["surface"]["n"] > 0, "last stage is empty")

    def _check_lagrange(self, inputs, r):
        tris = set(C.cliques(self._doc(inputs))[2])
        C.require(all(tuple(t) in tris for t in r.get("candidates", [])),
                  "a candidate is not a triangle")
        C.require(isinstance(r["max_rank"]["ok"], bool), "max-rank verdict missing")

    def _check_variety(self, inputs, r):
        step = Fraction(inputs["step"])
        sizes = [int(4 / step) + 1] * 3
        lo = [Fraction(-2)] * 3
        vals = C.grid_values(lambda x, y, z: x * x + y * y + z * z - 2, lo, step, sizes)
        stage = r["stages"][0]
        want = C.kuhn_straddle_count(vals, sizes, Fraction(stage["level"]) > 0)
        C.require(stage["surface"]["n"] == want, "variety surface size differs")
        C.require(stage["surface"]["euler_characteristic"] == 2
                  and stage["surface"]["components"] == 1, "variety surface is not a sphere")

    def _check_spectrum(self, inputs, r):
        C.check_spectrum(self._doc(inputs), r["eigenvalues"])
        C.require(r["max_residual"] <= 1e-8, "residual too large")

    def _check_nodal(self, inputs, r):
        want = C.laplacian_spectrum(self._doc(inputs))
        C.require(abs(r["eigenvalue"] - want[1]) <= 1e-8, "eigenvalue differs")
        cyc = r["surface"].get("cycle_lengths", [])
        C.require(sum(cyc) == r["surface"]["n"] and min(cyc, default=4) >= 4,
                  "nodal set is not a 1-graph")

    def _check_ground_state(self, inputs, r):
        C.require(abs(r["spectral_gap"] - 6.0) <= 1e-8, "16-cell spectral gap is not 6")
        s = r["nodal"]["surface"]
        if r["sphere_verification"]["verdict"] == "yes":
            C.require(s["euler_characteristic"] == 2 and s["components"] == 1,
                      "'sphere' verdict on a surface with chi != 2")

    def _check_export(self, inputs, r):
        adj = self._doc(inputs)
        with open(r["out"], encoding="utf-8") as fh:
            points, faces = C.parse_off(fh.read())
        C.check_mesh(points, faces, inputs["recipe"][3], C.f_vector(adj)[2], C.euler(adj))


WORKLOADS = {w.name: w for w in (Variety(), Verify(), Spectral(), Sweep(), Cli())}
