"""Distance kernels, Crofton Monte Carlo estimators and negative-type
analysis on hyperbolic, projective and spherical spaces.

The package namespace is lazy (PEP 562): `import hypcrofton` loads none
of the submodules, and the first lookup of an exported name, such as
`hypcrofton.hyperplane_crofton_many` or `from hypcrofton import
build_distance_matrix`, imports the one submodule that defines it.  Each
name resolves to the submodule's own attribute at lookup time.  The
submodules that export names (`hypcrofton.crofton`, ...) load the same
way.  A short CLI command thus pays only for the modules its subcommand
runs, not for the whole package.
"""

import importlib

__version__ = "0.1.0"

#: submodule -> the names the package exports from it
_EXPORTS = {
    "algebra": (
        "COMPLEX", "FIELD_DIM", "FIELDS", "QUATERNION", "REAL",
    ),
    "configurations": (
        "SPLIT_COEFFICIENTS", "cluster_sums", "projective_six_points",
        "quaternionic_cluster_points",
    ),
    "crofton": (
        "CARRIERS", "CroftonEstimate", "horosphere_crofton_many",
        "hyperplane_crofton_many",
    ),
    "kernels": (
        "EmbeddingResult", "NotNegativeTypeError", "build_distance_matrix",
        "hypermetric_scan", "negative_type_witness", "quadratic_form", "sqrt_embed",
        "violation_search",
    ),
    "spaces": ("random_coords",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [name for names in _EXPORTS.values() for name in names]


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
