"""Construction and validation of spacetimes admitting inverse mean
curvature vector flow coordinate charts, with the associated geometric
quantities: curvature tensors, mean curvature vectors, Hawking and ADM
mass, steering parameters and straight-out-flow one-forms."""

from .asymptotics import (
    ConformalMetric3,
    adm_conformal_delta,
    adm_mass,
    conformal_sphere_mean_curvature,
    hawking_to_adm_convergence,
)
from .builder import (
    ChartReport,
    ValidationSpec,
    complete_chart,
    complete_chart_file,
    imcvf_flow_param,
    imcvf_flow_radius,
    monotonicity_check_spherical,
    solve_d,
    validate_chart,
)
from .chart import (
    BlockMetric,
    ChartFile,
    CoordinatePoint,
    SphericalMetric,
    det_values,
    inverse_values,
    load_chart,
    metric_values,
    save_chart,
)
from .curvature import (
    christoffel_values,
    conformal_scalar,
    curvature_values,
    spherical_oracle,
)
from .errors import (
    CompatibilityError,
    ConvergenceError,
    DegenerateSurfaceError,
    EvalDomainError,
    ExprSyntaxError,
    GridTooCoarseError,
    ImcvfError,
    NonSpacelikeMeanCurvatureError,
    NotAreaExpandingError,
    NullMeanCurvatureError,
    SingularMetricError,
    UnknownIdentifierError,
)
from .expr import FieldExpr, diff, evaluate, parse, to_source
from .grid import SphereGrid
from .sphere import (
    MeanCurvatureDecomp,
    SphereFrame,
    first_variation_area_check,
    generalized_flow_radial_residual,
    hawking_mass,
    inverse_mean_curvature_vector,
    mean_curvature_vector,
    sphere_frame,
    sphere_laplacian,
    star_values,
)
from .steering import (
    FrameData,
    frame_data,
    minimal_surface_lemma_check,
    steer_metric,
    steering_parameter,
    tangentiality_residual,
)
from .straightout import (
    ConnectionOneForm,
    HyperbolicAngle,
    connection_one_form,
    divergence_alpha,
    gauge_rotation,
    is_time_flat,
    solve_straight_out_d,
    straight_out_residual,
)

__version__ = "0.1.0"
