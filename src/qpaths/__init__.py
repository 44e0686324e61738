"""Area-weighted non-intersecting lattice paths.

Exact partition and one-point functions at finite size, exact-start
heat-bath sampling, and the asymptotic arctic curve of the rescaled
model with its degenerate-weight limit shapes.
"""

from .actions import (
    action_bulk,
    action_free,
    action_free_dual,
    saddle_residual_t,
    saddle_residual_xi_left,
    saddle_residual_xi_right,
)
from .config import ModelConfig, parse_config
from .configs import (
    PathConfig,
    enumerate_configs,
    from_second_family,
    max_area_config,
    min_area_config,
    reflect_second_family,
    to_second_family,
)
from .curves import (
    Curve,
    ScalingVars,
    TDomain,
    arctic_curve,
    arctic_point,
    exit_params_left,
    exit_params_right,
    geodesic,
    t_domains,
    tangent_curve,
    x_of_t,
)
from .errors import (
    ConfigError,
    InvalidArgument,
    NumericalFailure,
    QpathsError,
    SingularPoint,
    SizeLimitExceeded,
    UnsupportedConfiguration,
)
from .exact import (
    StartSequence,
    dual_sequence,
    free_path_weight,
    most_likely_exit,
    one_point_exit,
    one_point_exit_det,
    one_point_exit_dual,
    one_point_table,
    partition_det,
    partition_poly,
    partition_product,
    perturbed_partition,
)
from .geometry import hausdorff_distance, polyline_self_intersects
from .profile import StartDensity, WindowSpec, freezing_tent, limit_curve
from .qpoly import QPolynomial, q_binomial, q_binomial_at, poly_det
from .sampler import ChainResult, DensityField, run_chain

__version__ = "0.1.0"

__all__ = [
    "ChainResult",
    "ConfigError",
    "Curve",
    "DensityField",
    "InvalidArgument",
    "ModelConfig",
    "NumericalFailure",
    "PathConfig",
    "QPolynomial",
    "QpathsError",
    "ScalingVars",
    "SingularPoint",
    "SizeLimitExceeded",
    "StartDensity",
    "StartSequence",
    "TDomain",
    "UnsupportedConfiguration",
    "WindowSpec",
    "action_bulk",
    "action_free",
    "action_free_dual",
    "arctic_curve",
    "arctic_point",
    "dual_sequence",
    "enumerate_configs",
    "exit_params_left",
    "exit_params_right",
    "free_path_weight",
    "from_second_family",
    "freezing_tent",
    "geodesic",
    "hausdorff_distance",
    "limit_curve",
    "max_area_config",
    "min_area_config",
    "most_likely_exit",
    "one_point_exit",
    "one_point_exit_det",
    "one_point_exit_dual",
    "one_point_table",
    "parse_config",
    "partition_det",
    "partition_poly",
    "partition_product",
    "perturbed_partition",
    "poly_det",
    "polyline_self_intersects",
    "q_binomial",
    "q_binomial_at",
    "reflect_second_family",
    "run_chain",
    "saddle_residual_t",
    "saddle_residual_xi_left",
    "saddle_residual_xi_right",
    "t_domains",
    "tangent_curve",
    "to_second_family",
    "x_of_t",
]
