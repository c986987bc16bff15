"""Planar dynamical-system analysis of the volume-normalized curvature flow
on three-parameter families of homogeneous metrics.

Importing the package loads none of its modules: each public name is
imported from its module on first access (PEP 562), so ``import
wallachflow.cli`` and a one-shot command load only the modules they use.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it defines, in the order of ``__all__``
_EXPORTS = {
    "core": ("LieData", "Parameters", "params_from_dims"),
    "flow": ("MetricPoint", "vector_field_3d", "vector_field_2d", "phi"),
    "equilibria": (
        "EquilibriumRay",
        "FamilyTag",
        "residual",
        "solve_all",
        "census",
        "quartic_coefficients",
        "quartic_discriminant",
        "normalize_unit_volume",
    ),
    "linearize": (
        "Linearization",
        "Classification",
        "PointKind",
        "f1",
        "f2",
        "linearize_at",
        "classify",
        "sigma_expression",
        "sigma_zero_family",
        "sigma_zero_points",
    ),
    "blowup": ("shifted_quadratic_parts", "delta_u_roots", "blowup_linearizations"),
    "surfaces": (
        "Region",
        "SurfaceSample",
        "q_eval",
        "q_and_grad",
        "q1_eval",
        "edge_curve",
        "component_classify",
        "cube_grid",
        "scan",
    ),
    "integrate": ("Trajectory", "integrate_flow"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
