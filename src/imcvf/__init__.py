"""Construction and validation of spacetimes admitting inverse mean
curvature vector flow coordinate charts, together with the geometric
quantities attached to their coordinate spheres: curvature tensors, mean
curvature vectors, Hawking and ADM mass, steering parameters, and the
connection one-forms of straight-out flows.  The independent oracles that
only the tests compare against live in the tests.

Importing the package executes none of its modules.  Each one is
registered in sys.modules and bound here unexecuted, and runs on the first
read of one of its attributes; the names below are re-exported from their
modules on first use (PEP 562).  CPython 3.11 executes such a module
with no lock, so a layer that worker threads will read is first read on
the thread that starts them.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# module -> the names the package re-exports from it
_EXPORTS = {
    "asymptotics": ("ConformalMetric3", "adm_mass"),
    "builder": ("ChartReport", "ValidationSpec", "complete_chart", "complete_chart_file",
                "imcvf_flow_param", "monotonicity_check_spherical", "solve_d",
                "validate_chart"),
    "chart": ("BlockMetric", "ChartFile", "CoordinatePoint", "det_values", "inverse_values",
              "load_chart", "metric_values", "save_chart"),
    "curvature": ("christoffel_values", "curvature_values", "spherical_oracle"),
    "errors": ("CompatibilityError", "ConvergenceError", "DegenerateSurfaceError",
               "EvalDomainError", "ExprSyntaxError", "GridTooCoarseError", "ImcvfError",
               "NonSpacelikeMeanCurvatureError", "NotAreaExpandingError",
               "NullMeanCurvatureError", "SingularMetricError", "UnknownIdentifierError"),
    "expr": ("FieldExpr", "diff", "evaluate", "parse", "to_source"),
    "grid": ("SphereGrid",),
    "sphere": ("first_variation_area_check", "hawking_mass", "inverse_mean_curvature_vector",
               "mean_curvature_values", "star_values"),
    "steering": ("FrameData", "frame_data", "steering_parameter"),
    "straightout": ("ConnectionOneForm", "HyperbolicAngle", "connection_one_form",
                    "divergence_alpha", "gauge_rotation", "is_time_flat",
                    "solve_straight_out_d", "straight_out_residual"),
}
_HOME = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def _register_lazily(layer: str) -> None:
    """Put imcvf.<layer> in sys.modules and on the package unexecuted; its
    code runs on the first read of one of its attributes."""
    spec = importlib.util.find_spec(f"{__name__}.{layer}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    globals()[layer] = module


for _layer in _EXPORTS:
    _register_lazily(_layer)
del _layer


def __getattr__(name):
    layer = _HOME.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[layer], name)


def __dir__():
    return sorted([*globals(), *_HOME])
