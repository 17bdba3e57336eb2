"""Laplacian spectra, nodal reports and ground-state nodal surfaces.

signed_components counts the components of vertex sets of the graph; it is
checked against a copy that builds each side as an induced graph.  The
ground state, which takes its nodal surface from Sard stage 1 of the double
surface, is checked against a copy of the composition it replaced
(nodal_report, is_sphere, then sard_pipeline, cutting {v2 = 0} twice).
"""

import dataclasses
import random
from fractions import Fraction

import numpy as np
import pytest

from levelgraph import sard, spectral
from levelgraph.catalog import (cross_polytope, cycle, icosahedron, kuhn_grid, octahedron,
                                random_sphere, suspension, wheel)
from levelgraph.core import SimplicialGraph, disjoint_union
from levelgraph.errors import (ConvergenceFailure, EmptyStage, InputError, LevelGraphError,
                               ZeroOnVertex)
from levelgraph.levelset import level_surface
from levelgraph.refine import barycentric
from levelgraph.spectral import (ZERO_TOL, eigenfunction_principle_check,
                                 ground_state_surface, nodal_report, signed_components,
                                 spectrum_of)
from levelgraph.sard import sard_pipeline
from levelgraph.topology import components, is_dgraph, is_sphere

from conftest import same_graph

TOL = 1e-8


def _close(got, want):
    assert len(got) == len(want)
    assert all(abs(a - b) < TOL for a, b in zip(got, want))


def test_spectrum_octahedron():
    _close(spectrum_of(octahedron()).eigenvalues, [0, 4, 4, 4, 6, 6])


def test_spectrum_wheel():
    _close(spectrum_of(wheel(7)).eigenvalues, [0, 2, 2, 4, 4, 5, 7])


def test_spectrum_edge():
    _close(spectrum_of(SimplicialGraph(2, [(0, 1)])).eigenvalues, [0, 2])


def test_spectrum_16_cell():
    _close(spectrum_of(cross_polytope(3)).eigenvalues, [0, 6, 6, 6, 6, 8, 8, 8])


def test_eigenvectors_orthonormal():
    V = spectrum_of(octahedron()).eigenvectors
    assert np.abs(V.T @ V - np.eye(6)).max() < TOL


def test_residuals_small():
    assert max(spectrum_of(octahedron()).residuals) < TOL


def test_trace_is_degree_sum():
    g = wheel(7)
    assert abs(sum(spectrum_of(g).eigenvalues)
               - sum(g.degree(v) for v in range(g.n))) < TOL


def test_zero_multiplicity_counts_components():
    g = disjoint_union(octahedron(), wheel(7))
    eig = spectrum_of(g).eigenvalues
    assert sum(1 for x in eig if abs(x) < TOL) == 2


def _induced_signed_components(g, values):
    pos = [v for v in range(g.n) if values[v] > ZERO_TOL]
    neg = [v for v in range(g.n) if values[v] < -ZERO_TOL]
    return len(components(g.induced(pos))), len(components(g.induced(neg)))


@pytest.mark.parametrize("cached", [False, True], ids=["uncached", "cached"])
def test_signed_components_match_the_induced_graphs(cached):
    rng = random.Random(23)
    graphs = [octahedron(), wheel(7), kuhn_grid(2, (5, 5)), random_sphere(4, 60),
              suspension(random_sphere(5, 30)), barycentric(cross_polytope(3)).graph,
              disjoint_union(cycle(8), icosahedron()), SimplicialGraph(0, [])]
    for g in graphs:
        if cached:
            g.simplices()
        for _ in range(10):
            # about a third of the entries near zero, so both sides split up
            values = [rng.choice((-1, 1)) * rng.random() * rng.choice((1, 1, 1e-10))
                      for _ in range(g.n)]
            assert signed_components(g, values) == _induced_signed_components(g, values)
        assert (g._simplices is not None) == cached


def _laplacian(g):
    L = np.diag([float(g.degree(v)) for v in range(g.n)])
    for u, v in g.edges():
        L[u, v] = L[v, u] = -1.0
    return L


def test_antipodal_eigenvector_octahedron():
    # odd under the antipodal map, hence eigenvalue n - deg(antipode edge) = 4
    L = _laplacian(octahedron())
    f = np.array([-1.0, -2.0, -3.0, 3.0, 2.0, 1.0])
    assert np.linalg.norm(L @ f - 4 * f) < TOL


def test_hub_zero_eigenvector_wheel():
    L = _laplacian(wheel(7))
    f = np.array([0.0, -1.0, -1.0, 0.0, 1.0, 1.0, 0.0])
    assert np.linalg.norm(L @ f - 2 * f) < TOL


def test_eigenfunction_principle_wheel():
    rows = eigenfunction_principle_check(wheel(7))
    assert len(rows) == 5          # eigenvalues 2, 2, 4, 4, 5 lie in (0, 7)
    assert all(v == 0 for v, _, _ in rows)
    assert all(mag < TOL for _, _, mag in rows)


def test_nodal_report_octahedron():
    nr = nodal_report(octahedron(), 2)
    assert abs(nr.eigenvalue - 4) < TOL
    assert nr.zero_vertices == ()
    assert not nr.perturbed and nr.seed is None
    assert (nr.positive_components, nr.negative_components) == (1, 1)
    assert nr.crossing_edges == 6
    assert (nr.positive_simplices, nr.negative_simplices) == (1, 1)
    assert nr.cheeger == Fraction(6, 1)
    assert is_dgraph(nr.surface.graph, 1).ok
    assert all(x != 0 for x in nr.rational)


def test_nodal_surface_is_exact_level_zero():
    nr = nodal_report(octahedron(), 2)
    assert nr.surface.levels == (Fraction(0),)
    assert nr.surface.functions[0] == nr.rational


def test_zero_on_vertex_without_perturb():
    # lambda=2 eigenvectors of the wheel vanish on the hub
    with pytest.raises(ZeroOnVertex):
        nodal_report(wheel(7), 2)


def test_seeded_perturbation_reproducible():
    a = nodal_report(wheel(7), 2, perturb=True, seed=5)
    b = nodal_report(wheel(7), 2, perturb=True, seed=5)
    c = nodal_report(wheel(7), 2, perturb=True, seed=6)
    assert a.perturbed and a.seed == 5
    assert a.rational == b.rational
    assert a.rational != c.rational
    assert all(x != 0 for x in a.rational)


def test_k_validation():
    with pytest.raises(InputError):
        nodal_report(octahedron(), 1)
    with pytest.raises(InputError):
        nodal_report(octahedron(), 7)


def test_convergence_failure(monkeypatch):
    # a basis that is not an eigenbasis trips the residual guard
    real_eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda A: (real_eigh(A)[0], np.eye(len(A))))
    with pytest.raises(ConvergenceFailure, match="residual"):
        spectrum_of(octahedron())

    def fail(A):
        raise np.linalg.LinAlgError("did not converge")
    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(ConvergenceFailure, match="eigh failed"):
        spectrum_of(octahedron())


def _clusters(w):
    """[start, stop) ranges of eigenvalues grouped by the spectral module's gap rule."""
    bounds = [0] + [k for k in range(1, len(w))
                    if w[k] - w[k - 1] > 1e-8 * max(1.0, abs(w[k - 1]), abs(w[k]))]
    return list(zip(bounds, bounds[1:] + [len(w)]))


@pytest.mark.parametrize("graph", [
    pytest.param(octahedron, id="octahedron"),
    pytest.param(lambda: cross_polytope(3), id="16-cell"),
    pytest.param(lambda: wheel(7), id="wheel7"),
    pytest.param(icosahedron, id="icosahedron"),
    pytest.param(lambda: cross_polytope(4), id="cross-polytope4"),
    pytest.param(lambda: barycentric(octahedron()).graph, id="barycentric-octahedron"),
    pytest.param(lambda: barycentric(cross_polytope(3)).graph, id="barycentric-16-cell"),
    pytest.param(lambda: barycentric(icosahedron()).graph, id="barycentric-icosahedron"),
    pytest.param(lambda: disjoint_union(octahedron(), wheel(7)), id="octahedron+wheel7"),
])
def test_basis_independent_of_solver(monkeypatch, graph):
    g = graph()
    want = spectrum_of(g)
    real_eigh = np.linalg.eigh
    rng = np.random.default_rng(7)

    def mixed_eigh(A):
        w, U = real_eigh(A)
        U = U.copy()
        for start, stop in _clusters(w):
            R, _ = np.linalg.qr(rng.standard_normal((stop - start, stop - start)))
            U[:, start:stop] = U[:, start:stop] @ R
        return w, U

    monkeypatch.setattr(np.linalg, "eigh", mixed_eigh)
    got = spectrum_of(g)
    assert got.eigenvalues == want.eigenvalues
    assert np.abs(got.eigenvectors - want.eigenvectors).max() < 1e-9
    V = got.eigenvectors
    assert np.abs(V.T @ V - np.eye(g.n)).max() < TOL
    assert max(got.residuals) < TOL


def test_ground_state_propagates_programming_errors(monkeypatch):
    # only library errors become double_error text; a bug must surface
    def broken(*args, **kwargs):
        raise TypeError("broken pipeline")

    monkeypatch.setattr(spectral, "sard_pipeline", broken)
    with pytest.raises(TypeError, match="broken pipeline"):
        ground_state_surface(cross_polytope(3), seed=0)


def test_ground_state_16_cell():
    gs = ground_state_surface(cross_polytope(3), seed=0)
    assert abs(gs.gap - 6) < TOL
    assert gs.sphere.ok and gs.sphere.dimension == 2
    assert gs.double is not None and gs.double_error is None
    assert gs.double_components == 1
    assert gs.double_verdict is not None and gs.double_verdict.ok


# -- the ground state against the composition it replaced ---------------------


def _parent_nodal_report(g, k, perturb, seed, spectrum):
    """nodal_report as it was: one level_surface call and Fraction compares
    for every edge and top simplex."""
    if k < 2:
        raise InputError("k must be at least 2 (k=1 is the constant eigenvector)")
    if k > g.n:
        raise InputError(f"k={k} exceeds {g.n} eigenvectors")
    vec = tuple(float(x) for x in spectrum.eigenvectors[:, k - 1])
    zero_vertices = tuple(v for v in range(g.n) if abs(vec[v]) <= ZERO_TOL)
    pos_comp, neg_comp = signed_components(g, vec)
    rational, perturbed = spectral._rationalize(vec, perturb, seed)
    surface = level_surface(g, rational, Fraction(0))
    crossing = sum(1 for u, v in g.edges() if (rational[u] > 0) != (rational[v] > 0))
    groups = g.simplices()
    top = groups[-1] if groups else ()
    pos_simp = sum(1 for s in top if all(rational[v] > 0 for v in s))
    neg_simp = sum(1 for s in top if all(rational[v] < 0 for v in s))
    cheeger = Fraction(crossing, min(pos_simp, neg_simp)) if min(pos_simp, neg_simp) else None
    return spectral.NodalReport(k, spectrum.eigenvalues[k - 1], vec, zero_vertices,
                                pos_comp, neg_comp, surface, crossing, pos_simp, neg_simp,
                                cheeger, perturbed, seed if perturbed else None,
                                tuple(rational))


def _parent_ground_state(g, seed=0, budget=None, spectrum=None):
    """ground_state_surface as it was composed: nodal_report, then is_sphere
    on its surface, then sard_pipeline, which cut {v2 = 0} a second time."""
    if spectrum is None:
        spectrum = spectrum_of(g)
    nodal = _parent_nodal_report(g, 2, True, seed, spectrum)
    d = g.dimension()
    sphere = is_sphere(nodal.surface.graph, d - 1, budget=budget)
    double = double_comp = double_verdict = double_error = None
    if d == 3:
        try:
            v3, _ = spectral._rationalize(spectrum.eigenvectors[:, 2], True, seed + 1)
            double = sard_pipeline(g, [nodal.rational, v3], [0, 0], budget=budget, perturb=True)
            double_comp = len(components(double.final))
            double_verdict = double.stages[-1].verdict
        except LevelGraphError as e:
            double_error = f"{type(e).__name__}: {e}"
    return spectral.GroundState(nodal, spectrum.eigenvalues[1], sphere,
                                double, double_comp, double_verdict, double_error)


def _same_surface(a, b):
    return (same_graph(a.graph, b.graph) and same_graph(a.parent, b.parent) and a.origin == b.origin
            and a.functions == b.functions and a.levels == b.levels)


def _same_nodal(a, b):
    fields = [f.name for f in dataclasses.fields(a) if f.name != "surface"]
    return (all(getattr(a, f) == getattr(b, f) for f in fields)
            and _same_surface(a.surface, b.surface))


def _same_ground_state(a, b):
    if not (_same_nodal(a.nodal, b.nodal) and a.gap == b.gap and a.sphere == b.sphere
            and (a.double_components, a.double_verdict, a.double_error)
            == (b.double_components, b.double_verdict, b.double_error)):
        return False
    if a.double is None or b.double is None:
        return a.double is b.double
    return (a.double.dimension == b.double.dimension
            and a.double.extension_rule == b.double.extension_rule
            and len(a.double.stages) == len(b.double.stages)
            and all((s.function_index, s.level, s.perturbed, s.input_values, s.excluded,
                     s.support, s.verdict)
                    == (t.function_index, t.level, t.perturbed, t.input_values, t.excluded,
                        t.support, t.verdict) and _same_surface(s.surface, t.surface)
                    for s, t in zip(a.double.stages, b.double.stages)))


GROUND_GRAPHS = {
    "16-cell": lambda: cross_polytope(3),
    "barycentric(16-cell)": lambda: barycentric(cross_polytope(3)).graph,
    "3-torus 4x4x4": lambda: kuhn_grid(3, (4, 4, 4), periodic=True),
    "random_3_sphere(7, 40)": lambda: suspension(random_sphere(7, 40)),
    "random_3_sphere(11, 25)": lambda: suspension(random_sphere(11, 25)),
    "cross_polytope(4)": lambda: cross_polytope(4),
}


def _counting_level_surface(monkeypatch):
    """Wrap level_surface where spectral and sard call it; the list records
    the graph of every call."""
    calls = []
    real = spectral.level_surface

    def counted(g, f, c):
        calls.append(g)
        return real(g, f, c)
    monkeypatch.setattr(spectral, "level_surface", counted)
    monkeypatch.setattr(sard, "level_surface", counted)
    return calls


@pytest.mark.parametrize("name", GROUND_GRAPHS)
def test_ground_state_equals_the_composition_it_replaced(name, monkeypatch):
    graph = GROUND_GRAPHS[name]()
    spectrum = spectrum_of(graph)
    for seed in (0, 3):
        want = _parent_ground_state(SimplicialGraph(graph.n, graph.edges()), seed=seed,
                                    spectrum=spectrum)
        g = SimplicialGraph(graph.n, graph.edges())
        with monkeypatch.context() as m:
            calls = _counting_level_surface(m)
            got = ground_state_surface(g, seed=seed, spectrum=spectrum)
        assert _same_ground_state(got, want)
        assert sum(1 for h in calls if h is g) == 1  # {v2 = 0} is cut once
        assert got.nodal.surface.parent is g
        if got.double is not None:
            assert got.nodal.surface is got.double.stages[0].surface
    if name == "3-torus 4x4x4":
        assert (want.sphere.verdict, want.double_components) == ("no", 4)
    if name == "cross_polytope(4)":
        assert want.double is None and want.double_error is None
    else:
        assert want.double is not None


def test_ground_state_without_a_spectrum_equals_the_composition_it_replaced():
    graph = suspension(random_sphere(7, 40))
    want = _parent_ground_state(SimplicialGraph(graph.n, graph.edges()), seed=5)
    got = ground_state_surface(SimplicialGraph(graph.n, graph.edges()), seed=5)
    assert _same_ground_state(got, want)


def test_ground_state_cuts_its_own_nodal_surface_when_the_double_fails(monkeypatch):
    def empty(g, fs, cs, **kwargs):
        raise EmptyStage(1, Fraction(0))
    monkeypatch.setattr(spectral, "sard_pipeline", empty)
    g = barycentric(cross_polytope(3)).graph
    spectrum = spectrum_of(g)
    gs = ground_state_surface(g, seed=2, spectrum=spectrum)
    assert gs.double is None and gs.double_components is None and gs.double_verdict is None
    assert gs.double_error == "EmptyStage: stage 1: level set at 0 is empty"
    assert _same_nodal(gs.nodal, nodal_report(g, 2, perturb=True, seed=2, spectrum=spectrum))
    assert gs.sphere == is_sphere(gs.nodal.surface.graph, 2)


def test_ground_state_of_one_vertex_raises_the_same_input_error():
    with pytest.raises(InputError) as want:
        _parent_ground_state(SimplicialGraph(1, []))
    with pytest.raises(InputError) as got:
        ground_state_surface(SimplicialGraph(1, []))
    assert str(got.value) == str(want.value) == "k=2 exceeds 1 eigenvectors"
