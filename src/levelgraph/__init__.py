"""Level surfaces, index theory and spectra on discrete d-graphs.

A d-graph is a finite simple graph in which every unit sphere is a
combinatorial (d-1)-sphere.  This package builds level surfaces {f=c}
inside such graphs, verifies their regularity, computes Poincare-Hopf
indices and curvature, runs iterated (Sard) level-set pipelines including
exact triangulation of polynomial varieties, and analyzes nodal surfaces
of Laplacian eigenfunctions.
"""

from .core import SimplicialGraph, Simplex, disjoint_union, euler_characteristic, join
from .catalog import (build, cross_polytope, cycle, icosahedron, kuhn_grid,
                      octahedron, random_sphere, sixteen_cell, suspension, wheel)
from .topology import (VerificationReport, components, is_contractible, is_dgraph,
                       is_sphere)
from .rational import as_fraction, as_fraction_vector
from .refine import RefinedGraph, barycentric, extend_by_support, extend_function
from .levelset import (LevelSurfaceGraph, SurfaceTriangles, interpolate_coordinates,
                       level_surface, simultaneous_locus, surface_triangles)
from .morse import (CurvatureVector, IndexReport, central_surface, curvature,
                    index_expectation, index_expectation_exact, ph_index,
                    ph_sum_check)
from .lagrange import (InjectivityReport, MaxRankReport, SignGradient,
                       lagrange_candidates, max_rank_check, sign_gradient,
                       strong_injectivity_check)
from .sard import SardStage, SardTrace, sard_pipeline
from .variety import Polynomial, parse_polynomial, triangulate_variety
from .spectral import (GroundState, NodalReport, Spectrum,
                       eigenfunction_principle_check, ground_state_surface,
                       nodal_report, signed_components, spectrum_of)
from .graphdoc import GraphDocument
from .meshio import export_mesh, to_obj, to_off
from . import errors

__version__ = "0.1.0"

__all__ = [
    "SimplicialGraph", "Simplex", "disjoint_union", "euler_characteristic", "join",
    "build", "cross_polytope", "cycle", "icosahedron", "kuhn_grid",
    "octahedron", "random_sphere", "sixteen_cell", "suspension", "wheel",
    "VerificationReport", "components", "is_contractible", "is_dgraph", "is_sphere",
    "as_fraction", "as_fraction_vector",
    "RefinedGraph", "barycentric", "extend_by_support", "extend_function",
    "LevelSurfaceGraph", "SurfaceTriangles", "interpolate_coordinates",
    "level_surface", "simultaneous_locus", "surface_triangles",
    "CurvatureVector", "IndexReport", "central_surface", "curvature",
    "index_expectation", "index_expectation_exact", "ph_index", "ph_sum_check",
    "InjectivityReport", "MaxRankReport", "SignGradient", "lagrange_candidates",
    "max_rank_check", "sign_gradient", "strong_injectivity_check",
    "SardStage", "SardTrace", "sard_pipeline",
    "Polynomial", "parse_polynomial", "triangulate_variety",
    "GroundState", "NodalReport", "Spectrum",
    "eigenfunction_principle_check", "ground_state_surface",
    "nodal_report", "signed_components", "spectrum_of",
    "GraphDocument", "export_mesh", "to_obj", "to_off",
    "errors",
]
