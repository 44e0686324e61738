"""The float-range contract of the public float entry points.

At arguments whose intermediates leave the double range, every public
float function of `exact`, `curves` and `actions` either returns a finite
result or raises a package error; a bare OverflowError, ZeroDivisionError
or numpy FloatingPointError never escapes.
"""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from qpaths import actions, curves, exact
from qpaths.errors import NumericalFailure, QpathsError, float_range, float_value
from qpaths.exact import StartSequence
from qpaths.profile import StartDensity

UNIFORM = StartDensity([(1.0, 2.0)])

CASES = {
    # exact
    "one_point_exit": lambda: exact.one_point_exit(StartSequence((0, 5)), 0, 1e60),
    "one_point_exit_dual": lambda: exact.one_point_exit_dual(StartSequence((0, 1, 40)), 42, 1e-5),
    "one_point_table": lambda: exact.one_point_table(StartSequence((0, 5)), 1e60),
    "one_point_table_dual": lambda: exact.one_point_table(StartSequence((0, 1, 40)), 1e-5, dual=True),
    "free_path_weight": lambda: exact.free_path_weight(40, 3, 1e60),
    "free_path_weight_underflow": lambda: exact.free_path_weight(5, 40, 1e-200),
    "perturbed_partition": lambda: exact.perturbed_partition(StartSequence((0, 5)), 3, 1e60),
    "most_likely_exit": lambda: exact.most_likely_exit(StartSequence((0, 1, 40)), 3, 1e-5),
    # curves
    "t_domains": lambda: curves.t_domains(UNIFORM, 1e300),
    "x_of_t": lambda: curves.x_of_t(UNIFORM, 1e200, 1e300),
    "x_of_t_quadrature": lambda: curves.x_of_t(UNIFORM, 1e200, 1e300, method="quadrature"),
    "arctic_point": lambda: curves.arctic_point(UNIFORM, 1e200, 1e300),
    "arctic_curve": lambda: curves.arctic_curve(UNIFORM, 1e300, "right", n_samples=8),
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


# At 1e-300 the pole qq**2 leaves the doubles, but both branches hold double
# t, so these must return.
RETURNING = {
    "t_domains": lambda: curves.t_domains(UNIFORM, 1e-300),
    "arctic_curve": lambda: curves.arctic_curve(UNIFORM, 1e-300, "right", n_samples=8),
}


def _finite(value) -> bool:
    if isinstance(value, curves.TDomain):
        # A branch bound is a pole, or 0 or inf where it leaves the doubles.
        return not (math.isnan(value.lo) or math.isnan(value.hi))
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


@pytest.mark.parametrize("call", RETURNING.values(), ids=RETURNING.keys())
def test_float_entry_points_return_finite_where_a_pole_leaves_the_doubles(call):
    assert _finite(call())


@pytest.mark.parametrize("base", [10.0, np.float64(10.0)], ids=["python", "numpy"])
def test_guard_names_the_quantity_and_keeps_the_cause(base):
    @float_range
    def _residue_sum(q):
        return q**400

    with pytest.raises(NumericalFailure, match="^residue sum is outside the float range") as info:
        _residue_sum(base)
    assert isinstance(info.value.__cause__, ArithmeticError)


def test_value_check_refuses_floats_outside_the_doubles():
    for value in (math.nan, math.inf, -math.inf):
        for positive in (False, True):
            with pytest.raises(NumericalFailure, match="^Z at q = 2.0 is outside the float range$"):
                float_value(value, "Z at q = 2.0", positive)
    # 0 is a value, unless the quantity is positive: then it has underflowed.
    assert float_value(0.0, "Z") == 0.0
    assert float_value(-1.5, "Z") == -1.5
    with pytest.raises(NumericalFailure, match="^Z is outside the float range$"):
        float_value(0.0, "Z", positive=True)
    assert float_value(np.float64(2.5), "Z", positive=True) == 2.5
    # Exact values pass, whatever their size or sign.
    for value in (Fraction(0), Fraction(-10**400, 3), 10**400):
        assert float_value(value, "Z", positive=True) is value
