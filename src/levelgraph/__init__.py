"""Level surfaces, index theory and spectra on discrete d-graphs.

A d-graph is a finite simple graph in which every unit sphere is a
combinatorial (d-1)-sphere.  This package builds level surfaces {f=c}
inside such graphs, verifies their regularity, computes Poincare-Hopf
indices and curvature, runs iterated (Sard) level-set pipelines including
exact triangulation of polynomial varieties, and analyzes nodal surfaces
of Laplacian eigenfunctions.

`import levelgraph` loads none of the submodules: an exported name imports
its home module on first use (PEP 562), and so does a submodule read as an
attribute, such as `levelgraph.topology`.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the names the package exports from it
_EXPORTS = {
    "core": ("SimplicialGraph", "Simplex", "disjoint_union", "euler_characteristic", "join"),
    "catalog": ("build", "cross_polytope", "cycle", "icosahedron", "kuhn_grid",
                "octahedron", "random_sphere", "sixteen_cell", "suspension", "wheel"),
    "topology": ("VerificationReport", "components", "is_contractible", "is_dgraph",
                 "is_sphere"),
    "rational": ("as_fraction", "as_fraction_vector"),
    "refine": ("RefinedGraph", "barycentric", "extend_by_support", "extend_function"),
    "levelset": ("LevelSurfaceGraph", "SurfaceTriangles", "interpolate_coordinates",
                 "level_surface", "simultaneous_locus", "surface_triangles"),
    "morse": ("CurvatureVector", "IndexReport", "central_surface", "curvature",
              "index_expectation", "index_expectation_exact", "ph_index", "ph_sum_check"),
    "lagrange": ("InjectivityReport", "MaxRankReport", "SignGradient", "lagrange_candidates",
                 "max_rank_check", "sign_gradient", "strong_injectivity_check"),
    "sard": ("SardStage", "SardTrace", "sard_pipeline"),
    "variety": ("Polynomial", "parse_polynomial", "triangulate_variety"),
    "spectral": ("GroundState", "NodalReport", "Spectrum", "eigenfunction_principle_check",
                 "ground_state_surface", "nodal_report", "signed_components", "spectrum_of"),
    "graphdoc": ("GraphDocument",),
    "meshio": ("export_mesh", "to_obj", "to_off"),
    "errors": (),
    "cli": (),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

# the errors module is exported whole, for `levelgraph.errors.InputError`
__all__ = [*_HOME, "errors"]


def __getattr__(name):
    if name in _EXPORTS:  # importing a submodule binds it on the package
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
