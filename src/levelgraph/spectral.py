"""Laplacian spectra, nodal regions and nodal surfaces of eigenfunctions.

spectrum_of is the one eigensolve entry.  It builds the float Laplacian
of a graph, solves it with numpy's eigh and puts the eigenvectors in a
canonical basis: each cluster of (numerically) equal eigenvalues gets the
Gram-Schmidt basis of fixed positive probe vectors projected onto it, so
the returned vectors depend only on the eigenspaces, never on the basis
the solver happened to pick inside a degenerate one.  Eigenvectors are
rationalized (exact binary expansion of the floats) before level surfaces
are built, so everything downstream stays exact.

A nodal report's counts (crossing edges, signed top simplices, the
Cheeger ratio) read one list of signs.  ground_state_surface cuts the
nodal surface {v2=0} once: in dimension 3 it is stage 1 of the Sard
pipeline of the double nodal surface {v2=0, v3=0}, the same
level_surface(g, v2, 0) nodal_report builds.

numpy is imported inside the functions that call it, so it is loaded on
the first eigensolve and never by code that only imports this module.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import sqrt
from typing import TYPE_CHECKING, Optional, Sequence

from .core import SimplicialGraph
from .errors import ConvergenceFailure, InputError, LevelGraphError, ZeroOnVertex
from .levelset import LevelSurfaceGraph, level_surface
from .sard import SardTrace, sard_pipeline
from .topology import VerificationReport, _components, components, is_sphere

if TYPE_CHECKING:
    import numpy as np

ZERO_TOL = 1e-9  # float entries this close to 0 count as zeros
EIGENVALUE_MARGIN = 1e-8  # eigenvalues this close to 0 or n are taken as 0 or n


@dataclass(frozen=True)
class Spectrum:
    eigenvalues: tuple[float, ...]  # ascending
    eigenvectors: np.ndarray        # column k pairs with eigenvalues[k]
    residuals: tuple[float, ...]    # per pair, against the Laplacian


@dataclass(frozen=True)
class NodalReport:
    k: int  # 1-indexed, k=1 is the constant eigenvector
    eigenvalue: float
    vector: tuple[float, ...]
    zero_vertices: tuple[int, ...]
    positive_components: int
    negative_components: int
    surface: LevelSurfaceGraph
    crossing_edges: int
    positive_simplices: int
    negative_simplices: int
    cheeger: Optional[Fraction]  # crossing / min(pos, neg), None if one side empty
    perturbed: bool
    seed: Optional[int]
    rational: tuple[Fraction, ...]  # the vector the surface was built from


@dataclass(frozen=True)
class GroundState:
    nodal: NodalReport
    gap: float  # second eigenvalue
    sphere: VerificationReport  # is the nodal surface a (d-1)-sphere
    double: Optional[SardTrace]  # d=3 only: {v2=0} then {v3=0}
    double_components: Optional[int]
    double_verdict: Optional[VerificationReport]
    double_error: Optional[str]


_PHI = (sqrt(5) - 1) / 2


def _probe(n: int, j: int) -> np.ndarray:
    """Probe j: entries frac((i+1)(j+1)phi + (i+1)/sqrt 2) + 1/2, all in [1/2, 3/2)."""
    import numpy as np

    i = np.arange(1, n + 1, dtype=np.float64)
    return np.modf(i * ((j + 1) * _PHI) + i / sqrt(2))[0] + 0.5


def _canonical_basis(eigenvalues: Sequence[float], U: np.ndarray) -> np.ndarray:
    """An orthonormal eigenbasis that depends only on the eigenspaces of U.

    Eigenvalues whose consecutive gaps are at most 1e-8 * max(1, |lambda|)
    form one cluster.  The fixed positive probes are projected onto each
    cluster in order and Gram-Schmidt keeps each residual of norm above
    1e-6 until the cluster is spanned, so a kept vector v has
    <v, probe> = |v|^2 > 0 against its own probe and needs no sign rule.
    Coordinate vectors e_i would not do as probes: their projections
    vanish on whole vertex sets (e_0 onto the octahedron's lambda=4 space
    is (e_0 - e_5)/2), which puts nodal surfaces through vertices.
    """
    import numpy as np

    n = U.shape[0]
    V = np.empty_like(U)
    start = 0
    while start < n:
        stop = start + 1
        while (stop < n and eigenvalues[stop] - eigenvalues[stop - 1]
               <= 1e-8 * max(1.0, abs(eigenvalues[stop - 1]), abs(eigenvalues[stop]))):
            stop += 1
        Q = U[:, start:stop]
        m = stop - start
        kept: list[np.ndarray] = []  # orthonormal, in the cluster's coordinates
        for j in range(m + n):
            r = Q.T @ _probe(n, j)
            for b in kept:
                r -= (b @ r) * b
            norm = float(np.linalg.norm(r))
            if norm > 1e-6:
                kept.append(r / norm)
                if len(kept) == m:
                    break
        if len(kept) < m:  # pragma: no cover - the probes span R^n in practice
            raise ConvergenceFailure(
                f"probes span {len(kept)} of {m} dimensions at eigenvalue "
                f"{eigenvalues[start]:.6g}")
        V[:, start:stop] = Q @ np.column_stack(kept)
        start = stop
    return V


def spectrum_of(g: SimplicialGraph) -> Spectrum:
    """Eigenpairs of the graph Laplacian D - A, in the canonical basis.

    Raises ConvergenceFailure when eigh fails or an eigenpair residual
    exceeds 1e-8 * max(1, ||L||_inf).
    """
    import numpy as np

    L = np.zeros((g.n, g.n))
    for v, nbrs in enumerate(g.neighbors):
        L[v, list(nbrs)] = -1.0
        L[v, v] = len(nbrs)
    try:
        w, U = np.linalg.eigh(L)
    except np.linalg.LinAlgError as e:
        raise ConvergenceFailure(f"eigh failed: {e}") from None
    eigenvalues = tuple(float(x) for x in w)
    vectors = _canonical_basis(eigenvalues, U)
    residuals = tuple(float(x) for x in np.linalg.norm(L @ vectors - vectors * w, axis=0))
    bound = 1e-8 * max(1.0, float(np.abs(L).sum(axis=1).max(initial=0.0)))
    worst = max(residuals, default=0.0)
    if not worst <= bound:
        raise ConvergenceFailure(f"eigenpair residual {worst:.3e} above bound {bound:.3e}")
    return Spectrum(eigenvalues, vectors, residuals)


def signed_components(g: SimplicialGraph, values: Sequence[float]) -> tuple[int, int]:
    """Component counts of the subgraphs induced by f > ZERO_TOL and f < -ZERO_TOL."""
    pos = {v for v in range(g.n) if values[v] > ZERO_TOL}
    neg = {v for v in range(g.n) if values[v] < -ZERO_TOL}
    return len(_components(g, pos)), len(_components(g, neg))


def _rationalize(vector: Sequence[float], perturb: bool,
                 seed: Optional[int]) -> tuple[list[Fraction], bool]:
    """Exact rational copy of a float vector with no zero entries.

    Entries within ZERO_TOL of 0 are only acceptable after the seeded
    perturbation (uniform entries in [-1e-6, 1e-6]) documented in the
    nodal-surface recipe.
    """
    values = [Fraction(float(x)) for x in vector]
    zeros = [v for v, x in enumerate(vector) if abs(x) <= ZERO_TOL]
    if not zeros:
        return values, False
    if not perturb:
        raise ZeroOnVertex(zeros[0], float(vector[zeros[0]]))
    rng = random.Random(seed)
    for _ in range(10):
        shifted = [x + Fraction(rng.uniform(-1e-6, 1e-6)) for x in values]
        if all(x != 0 for x in shifted):
            return shifted, True
    raise ZeroOnVertex(zeros[0], float(vector[zeros[0]]))  # pragma: no cover


def _eigenvector(g: SimplicialGraph, k: int, perturb: bool, seed: Optional[int],
                 spectrum: Optional[Spectrum]) -> tuple[Spectrum, tuple[float, ...],
                                                        tuple[Fraction, ...], bool]:
    """The k-th eigenvector as floats and as the rational copy its nodal
    surface is cut from, after the checks on k."""
    if k < 2:
        raise InputError("k must be at least 2 (k=1 is the constant eigenvector)")
    if k > g.n:
        raise InputError(f"k={k} exceeds {g.n} eigenvectors")
    if spectrum is None:
        spectrum = spectrum_of(g)
    vec = tuple(float(x) for x in spectrum.eigenvectors[:, k - 1])
    rational, perturbed = _rationalize(vec, perturb, seed)
    return spectrum, vec, tuple(rational), perturbed


def _report(g, k, spectrum, vec, rational, perturbed, seed, surface) -> NodalReport:
    """The NodalReport of the k-th eigenvector, given its nodal surface.

    The counts read one sign list: rational has no zero entry, and a
    Fraction's sign is its numerator's.  Lists g's complex, which caches it.
    """
    zero_vertices = tuple(v for v in range(g.n) if abs(vec[v]) <= ZERO_TOL)
    pos_comp, neg_comp = signed_components(g, vec)
    positive = {v for v, x in enumerate(rational) if x.numerator > 0}
    nbrs = g.neighbors
    crossing = sum(len(nbrs[v] - positive) for v in positive)  # each at its positive end
    groups = g.simplices()
    top = groups[-1] if groups else ()
    pos_simp = sum(1 for s in top if positive.issuperset(s))
    neg_simp = sum(1 for s in top if positive.isdisjoint(s))
    low = min(pos_simp, neg_simp)
    cheeger = Fraction(crossing, low) if low else None
    return NodalReport(k, spectrum.eigenvalues[k - 1], vec, zero_vertices,
                       pos_comp, neg_comp, surface, crossing, pos_simp, neg_simp,
                       cheeger, perturbed, seed if perturbed else None, rational)


def nodal_report(g: SimplicialGraph, k: int, *,
                 perturb: bool = False, seed: Optional[int] = 0,
                 spectrum: Optional[Spectrum] = None) -> NodalReport:
    """Nodal data of the k-th eigenvector (ascending, 1-indexed).

    Components are counted strictly beyond ZERO_TOL on the original float
    vector.  The nodal surface {f=0} is built from the rationalized vector;
    vertices at zero either abort (perturb=False) or are moved off zero by
    a recorded seeded perturbation.
    """
    spectrum, vec, rational, perturbed = _eigenvector(g, k, perturb, seed, spectrum)
    surface = level_surface(g, rational, Fraction(0))
    return _report(g, k, spectrum, vec, rational, perturbed, seed, surface)


def eigenfunction_principle_check(g: SimplicialGraph,
                                  spectrum: Optional[Spectrum] = None
                                  ) -> list[tuple[int, float, float]]:
    """|f(v)| for every dominating vertex v and eigenvalue strictly in (0, n).

    Eigenfunctions to such eigenvalues vanish on vertices adjacent to
    everything; the returned magnitudes should all be tiny.
    """
    if spectrum is None:
        spectrum = spectrum_of(g)
    hubs = [v for v in range(g.n) if g.degree(v) == g.n - 1]
    out = []
    for v in hubs:
        for i, lam in enumerate(spectrum.eigenvalues):
            if EIGENVALUE_MARGIN < lam < g.n - EIGENVALUE_MARGIN:
                out.append((v, lam, abs(float(spectrum.eigenvectors[v, i]))))
    return out


def ground_state_surface(g: SimplicialGraph, *, seed: int = 0,
                         budget: Optional[int] = None,
                         spectrum: Optional[Spectrum] = None) -> GroundState:
    """Nodal surface of the first nonzero mode, checked against a sphere.

    Perturbation is always enabled here: symmetric graphs routinely zero
    out ground-state entries.  In dimension 3 the double nodal surface
    {v2=0, v3=0} is attempted as well; its library errors (LevelGraphError)
    are reported as text rather than raised, since the construction is
    experimental.  Any other exception is a bug and propagates.

    The nodal surface is cut once.  In dimension 3 it is Sard stage 1 of
    the double surface: level_surface(g, v2, 0), the cut nodal_report
    makes, at a level never nudged since the rational v2 has no zero
    entry.  When d != 3, or when the double surface raises, it is cut on
    its own.
    """
    spectrum, vec, rational, perturbed = _eigenvector(g, 2, True, seed, spectrum)
    d = len(g.simplices()) - 1  # the complex _report lists, cached
    double = double_comp = double_verdict = double_error = None
    if d == 3:
        try:
            v3, _ = _rationalize(spectrum.eigenvectors[:, 2], True, seed + 1)
            double = sard_pipeline(g, [rational, v3], [0, 0], budget=budget, perturb=True)
            double_comp = len(components(double.final))
            double_verdict = double.stages[-1].verdict
        except LevelGraphError as e:  # experimental harness: report, do not raise
            double_error = f"{type(e).__name__}: {e}"
    if double is not None:
        surface = double.stages[0].surface
    else:
        surface = level_surface(g, rational, Fraction(0))
    nodal = _report(g, 2, spectrum, vec, rational, perturbed, seed, surface)
    sphere = is_sphere(surface.graph, d - 1, budget=budget)
    return GroundState(nodal, spectrum.eigenvalues[1], sphere,
                       double, double_comp, double_verdict, double_error)
