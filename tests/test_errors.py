"""The float-range contract of the public float entry points.

At arguments whose intermediates leave the double range, every public
float function of `exact`, `curves` and `actions` either returns a finite
result or raises a package error; a bare OverflowError, ZeroDivisionError
or numpy FloatingPointError never escapes.
"""

import dataclasses
import math

import numpy as np
import pytest

from qpaths import actions, curves, exact
from qpaths.errors import NumericalFailure, QpathsError, float_range
from qpaths.exact import StartSequence
from qpaths.profile import StartDensity

UNIFORM = StartDensity([(1.0, 2.0)])
RIGHT = curves.TDomain(1e-200, math.inf, "right", 1)

CASES = {
    # exact
    "one_point_exit": lambda: exact.one_point_exit(StartSequence((0, 5)), 0, 1e60),
    "one_point_exit_dual": lambda: exact.one_point_exit_dual(StartSequence((0, 1, 40)), 42, 1e-5),
    "free_path_weight": lambda: exact.free_path_weight(40, 3, 1e60),
    "free_path_weight_underflow": lambda: exact.free_path_weight(5, 40, 1e-200),
    "free_path_weight_dual": lambda: exact.free_path_weight_dual(StartSequence((0, 2, 4)), 4, 3, 1e60),
    "perturbed_partition": lambda: exact.perturbed_partition(StartSequence((0, 5)), 3, 1e60),
    "most_likely_exit": lambda: exact.most_likely_exit(StartSequence((0, 1, 40)), 3, 1e-5),
    # curves
    "t_domains": lambda: curves.t_domains(UNIFORM, 1e-300),
    "x_of_t": lambda: curves.x_of_t(UNIFORM, 1e200, 1e300),
    "x_of_t_quadrature": lambda: curves.x_of_t(UNIFORM, 1e200, 1e300, method="quadrature"),
    "dx_dt": lambda: curves.dx_dt(UNIFORM, 1e200, 1e300),
    "arctic_point": lambda: curves.arctic_point(UNIFORM, 1e200, 1e300),
    "arctic_curve": lambda: curves.arctic_curve(UNIFORM, 1e-300, RIGHT, n_samples=8),
    "tangent_curve": lambda: curves.tangent_curve(UNIFORM, 1e200, 1e300),
    "geodesic": lambda: curves.geodesic(1e200, 1.5, 2.0),
    "exit_params_right": lambda: curves.exit_params_right(UNIFORM, 1e200, 1e300),
    "exit_params_left": lambda: curves.exit_params_left(UNIFORM, 1e200, -1e300),
    # actions
    "action_bulk": lambda: actions.action_bulk(UNIFORM, 1e200, 1e300, 0.5),
    "action_free": lambda: actions.action_free(1e200, 2.0, 3.0),
    "action_free_dual": lambda: actions.action_free_dual(UNIFORM, 1e200, 1.5, 2.0),
    "saddle_residual_t": lambda: actions.saddle_residual_t(UNIFORM, 1e200, 1e300, 1.7),
    "saddle_residual_xi_right": lambda: actions.saddle_residual_xi_right(
        UNIFORM, 1e200, 1e300, 1.5, 2.0
    ),
    "saddle_residual_xi_left": lambda: actions.saddle_residual_xi_left(
        UNIFORM, 1e200, -1e300, 1.5, 2.0
    ),
}


def _finite(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, (tuple, list)):
        return all(_finite(v) for v in value)
    if isinstance(value, curves.Curve):
        return _finite(value.points)
    if dataclasses.is_dataclass(value):
        return _finite(dataclasses.astuple(value))
    return True


@pytest.mark.parametrize("call", CASES.values(), ids=CASES.keys())
def test_float_entry_points_return_finite_or_raise_a_package_error(call):
    try:
        value = call()
    except QpathsError:
        return
    assert _finite(value), value


@pytest.mark.parametrize("base", [10.0, np.float64(10.0)], ids=["python", "numpy"])
def test_guard_names_the_quantity_and_keeps_the_cause(base):
    @float_range
    def _residue_sum(q):
        return q**400

    with pytest.raises(NumericalFailure, match="^residue sum is outside the float range") as info:
        _residue_sum(base)
    assert isinstance(info.value.__cause__, ArithmeticError)
