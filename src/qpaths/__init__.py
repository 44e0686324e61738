"""Area-weighted non-intersecting lattice paths.

Exact partition and one-point functions at finite size, exact-start
heat-bath sampling, and the asymptotic arctic curve of the rescaled
model with its degenerate-weight limit shapes.

``_PUBLIC`` names every submodule and the public names it defines, once:
``__all__`` is built from it, and a public name or a submodule is imported
on its first use (PEP 562), so ``import qpaths`` loads no submodule.
"""

import importlib as _importlib

__version__ = "0.1.0"

_PUBLIC = {
    "actions": ("action_bulk", "action_free", "action_free_dual", "saddle_residual_t",
                "saddle_residual_xi_left", "saddle_residual_xi_right"),
    "cli": (),
    "config": ("ModelConfig", "parse_config"),
    "configs": ("PathConfig", "dual_config", "enumerate_configs"),
    "curves": ("Curve", "ScalingVars", "TDomain", "arctic_curve", "arctic_point", "exit_params_left",
               "exit_params_right", "geodesic", "t_domains", "tangent_curve", "x_of_t"),
    "errors": ("ConfigError", "InvalidArgument", "NumericalFailure", "QpathsError", "SingularPoint",
               "SizeLimitExceeded", "UnsupportedConfiguration"),
    "exact": ("StartSequence", "dual_sequence", "most_likely_exit", "one_point_exit",
              "one_point_exit_det", "one_point_exit_dual", "one_point_table", "partition_det",
              "partition_poly", "partition_product", "perturbed_partition"),
    "geometry": ("hausdorff_distance", "polyline_self_intersects"),
    "profile": ("StartDensity", "WindowSpec", "freezing_tent", "limit_curve"),
    "qpoly": ("QPolynomial", "poly_det", "q_binomial"),
    "quadrature": (),
    "sampler": ("ChainResult", "DensityField", "run_chain"),
    "serialize": (),
}
_OWNER = {name: module for module, names in _PUBLIC.items() for name in names}
__all__ = sorted(_OWNER)


def __getattr__(name: str):
    """A public name or a submodule, imported on first use and bound here."""
    if name in _OWNER:
        value = getattr(_importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    elif name in _PUBLIC:
        value = _importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_PUBLIC, *__all__})
