"""The float-range contract of the public float entry points.

At arguments whose intermediates leave the double range, every public
float function of `exact`, `curves` and `actions` either returns a finite
result or raises a package error; a bare OverflowError, ZeroDivisionError
or numpy FloatingPointError never escapes.
"""

import dataclasses
import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest

from qpaths import actions, curves, exact
from qpaths.errors import (
    InvalidArgument, NumericalFailure, QpathsError,
    float_range, float_value, integer_value, real_value, shown,
)
from qpaths.exact import StartSequence
from qpaths.profile import StartDensity

UNIFORM = StartDensity([(1.0, 2.0)])

# Each case takes the type its float arguments are made of: float, or
# np.float64 for the numpy variant.
CASES = {
    # exact
    # At 1e-5 the residue sum runs at 1e5 on the reflected (0, 39, 40), whose
    # D_2 leaves the doubles: every H(ell) past n = 2 is refused.
    "one_point_exit": lambda f: exact.one_point_exit(StartSequence((0, 1, 40)), 3, f(1e-5)),
    "one_point_exit_dual": lambda f: exact.one_point_exit_dual(StartSequence((0, 1, 40)), 2, f(1e-5)),
    "one_point_table": lambda f: exact.one_point_table(StartSequence((0, 1, 40)), f(1e-5)),
    # The continuation weight W_r(ell): its power q**(ell + r - 1) overflows
    # at 1e60 and r = 40, and W_1(2) = q**2 at 1e-154 underflows to a subnormal.
    "free_path_weight": lambda f: exact.most_likely_exit(StartSequence((0, 5)), 40, f(1e60)),
    "free_path_weight_underflow": lambda f: exact.perturbed_partition(StartSequence((0, 2)), 1, f(1e-154)),
    "perturbed_partition": lambda f: exact.perturbed_partition(StartSequence((0, 5)), 3, f(1e60)),
    "most_likely_exit": lambda f: exact.most_likely_exit(StartSequence((0, 1, 40)), 3, f(1e-5)),
    # curves
    "t_domains": lambda f: curves.t_domains(UNIFORM, f(1e300)),
    "x_of_t": lambda f: curves.x_of_t(UNIFORM, f(1e200), f(1e300)),
    "x_of_t_quadrature": lambda f: curves.x_of_t(UNIFORM, f(1e200), f(1e300), method="quadrature"),
    "arctic_point": lambda f: curves.arctic_point(UNIFORM, f(1e200), f(1e300)),
    "arctic_curve": lambda f: curves.arctic_curve(
        UNIFORM, f(1e300), curves.t_domains(UNIFORM, f(1e300))[0], n_samples=8),
    "tangent_curve": lambda f: curves.tangent_curve(UNIFORM, f(1e200), f(1e300)),
    "geodesic": lambda f: curves.geodesic(f(1e200), f(1.5), f(2.0)),
    "exit_params_right": lambda f: curves.exit_params_right(UNIFORM, f(1e200), f(1e300)),
    "exit_params_left": lambda f: curves.exit_params_left(UNIFORM, f(1e200), f(-1e300)),
    # actions
    "action_bulk": lambda f: actions.action_bulk(UNIFORM, f(1e200), f(1e300), f(0.5)),
    "action_free": lambda f: actions.action_free(f(1e200), f(2.0), f(3.0)),
    "action_free_overflow": lambda f: actions.action_free(f(1e200), f(1e300), f(1e300)),
    "action_free_infinite_xi": lambda f: actions.action_free(f(3.0), f(math.inf), f(1.0)),
    "action_free_dual": lambda f: actions.action_free_dual(UNIFORM, f(1e200), f(1.5), f(2.0)),
    "action_free_dual_overflow": lambda f: actions.action_free_dual(UNIFORM, f(3.0), f(1.0), f(1e300)),
    "saddle_residual_t": lambda f: actions.saddle_residual_t(UNIFORM, f(1e200), f(1e300), f(1.7)),
    "saddle_residual_xi_right": lambda f: actions.saddle_residual_xi_right(
        UNIFORM, f(1e200), f(1e300), f(1.5), f(2.0)
    ),
    "saddle_residual_xi_left": lambda f: actions.saddle_residual_xi_left(
        UNIFORM, f(1e200), f(-1e300), f(1.5), f(2.0)
    ),
}


# At 1e-300 the pole qq**2 leaves the doubles, but both branches hold double
# t, so these must return.
RETURNING = {
    "t_domains": lambda: curves.t_domains(UNIFORM, 1e-300),
    "arctic_curve": lambda: curves.arctic_curve(UNIFORM, 1e-300, curves.t_domains(UNIFORM, 1e-300)[0],
                                                n_samples=8),
}


def _finite(value) -> bool:
    if isinstance(value, curves.TDomain):
        # A branch bound is a pole, or 0 or inf where it leaves the doubles.
        return not (math.isnan(value.lo) or math.isnan(value.hi))
    if isinstance(value, float):
        # A plain float: no numpy scalar leaves an entry point.
        return type(value) is float and math.isfinite(value)
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
        value = call(float)
    except QpathsError:
        return
    assert _finite(value), value


@pytest.mark.parametrize("call", CASES.values(), ids=CASES.keys())
def test_float_entry_points_take_numpy_scalars_as_plain_floats(call):
    # np.float64 arguments enter as plain floats, so pure-Python math raises
    # or refuses as it does for floats, with no RuntimeWarning, and no numpy
    # scalar comes back.
    try:
        value = call(np.float64)
    except QpathsError:
        return
    assert _finite(value), value


@pytest.mark.parametrize("call", RETURNING.values(), ids=RETURNING.keys())
def test_float_entry_points_return_finite_where_a_pole_leaves_the_doubles(call):
    assert _finite(call())


@pytest.mark.parametrize("base", [10.0], ids=["python"])
def test_guard_names_the_quantity_and_keeps_the_cause(base):
    @float_range
    def _residue_sum(q):
        return q**400

    with pytest.raises(NumericalFailure, match="^residue sum is outside the float range") as info:
        _residue_sum(base)
    assert isinstance(info.value.__cause__, ArithmeticError)


# Just past the left branch's end t = 1, ln x(t) is about 714: numpy's
# exp overflows in the terms kernel, which returns inf, and x_of_t and
# tangent_curve refuse the non-finite x through float_value.
STEEP = StartDensity([(0.5, 1.0), (0.5, 3.0)])
NUMPY_OVERFLOW = {
    "x_of_t": lambda: curves.x_of_t(STEEP, 1e-300, 1.0 + 1e-10),
    "tangent_curve": lambda: curves.tangent_curve(STEEP, 1e-300, 1.0 + 1e-10),
}


@pytest.mark.parametrize("call", NUMPY_OVERFLOW.values(), ids=NUMPY_OVERFLOW.keys())
def test_guard_refuses_numpy_overflow_in_entry_points(call):
    with pytest.raises(NumericalFailure, match=r"^x at t=1.0000000001 is outside the float range$"):
        call()


def test_value_check_refuses_floats_outside_the_doubles():
    for value in (math.nan, math.inf, -math.inf):
        for positive in (False, True):
            with pytest.raises(NumericalFailure, match="^Z at q = 2.0 is outside the float range$"):
                float_value(value, "Z at q = 2.0", positive)
    # 0 is a value, unless the quantity is positive: then it has underflowed.
    assert float_value(0.0, "Z") == 0.0
    assert float_value(-1.5, "Z") == -1.5
    # A positive quantity below the least normal double has underflowed too.
    for value in (0.0, 5e-324, 2.2e-308):
        with pytest.raises(NumericalFailure, match="^Z is outside the float range$"):
            float_value(value, "Z", positive=True)
    assert float_value(sys.float_info.min, "Z", positive=True) == sys.float_info.min
    assert float_value(np.float64(2.5), "Z", positive=True) == 2.5
    # Exact values pass, whatever their size or sign.
    for value in (Fraction(0), Fraction(-10**400, 3), 10**400):
        assert float_value(value, "Z", positive=True) is value


REFUSED_REALS = {
    "x_of_t_t_bool": lambda: curves.x_of_t(UNIFORM, 3.0, True),
    "x_of_t_t_str": lambda: curves.x_of_t(UNIFORM, 3.0, "18.0"),
    "arctic_point_t_complex": lambda: curves.arctic_point(UNIFORM, 3.0, 18.0 + 0j),
    "tangent_curve_t_none": lambda: curves.tangent_curve(UNIFORM, 3.0, None),
    "exit_params_right_t_huge": lambda: curves.exit_params_right(UNIFORM, 3.0, 10**400),
    "geodesic_xi_str": lambda: curves.geodesic(3.0, "1.5", 2.0),
    "geodesic_z_array": lambda: curves.geodesic(3.0, 1.5, np.array([2.0])),
    "base_str": lambda: curves.t_domains(UNIFORM, "3.0"),
    "base_bool": lambda: actions.action_free(True, 1.5, 2.0),
    "action_bulk_xi_nan": lambda: actions.action_bulk(UNIFORM, 3.0, 18.0, math.nan),
    "action_free_z_inf": lambda: actions.action_free(3.0, 1.5, math.inf),
    "action_free_dual_xi_bool": lambda: actions.action_free_dual(UNIFORM, 3.0, True, 2.0),
    "saddle_residual_t_t_str": lambda: actions.saddle_residual_t(UNIFORM, 3.0, "18", 1.5),
    "saddle_residual_xi_right_t_nan": lambda: actions.saddle_residual_xi_right(
        UNIFORM, 3.0, math.nan, 1.5, 2.0),
    "density_slope_str": lambda: StartDensity([(1.0, "2")]),
}


@pytest.mark.parametrize("call", REFUSED_REALS.values(), ids=REFUSED_REALS.keys())
def test_real_arguments_are_refused(call):
    # One rule for every real argument: a bool, a non-number, a non-finite
    # number or one beyond the doubles raises InvalidArgument, never a raw
    # TypeError or a value computed from nan.
    with pytest.raises(InvalidArgument):
        call()


def test_real_value_makes_plain_finite_floats():
    for value in (3, -2.5, Fraction(1, 3), np.float32(0.5), np.float64(1e300), np.int64(-7)):
        got = real_value(value, "t")
        assert type(got) is float and got == float(value)
    for value, problem in ((True, "must be a real number, got True"),
                           (np.bool_(False), "must be a real number, got "),
                           ("1.5", "must be a real number, got '1.5'"),
                           (1j, "must be a real number, got 1j"),
                           (math.nan, "must be finite, got nan"),
                           (-math.inf, "must be finite, got -inf"),
                           (np.float32("inf"), "must be finite, got "),
                           (10**400, "lies beyond the float range"),
                           (Fraction(10**400, 3), "lies beyond the float range")):
        with pytest.raises(InvalidArgument, match=f"^t {re.escape(problem)}"):
            real_value(value, "t")


def test_plain_floats_pass_the_real_rule_unchanged():
    # A finite plain float returns at once; every other value, np.float64
    # among them, takes the full rule and its messages.
    for value in (0.0, -0.0, 5e-324, -1e308, 2.5):
        got = real_value(value, "t")
        assert type(got) is float and got.hex() == value.hex()
    for value in (np.float64(2.5), np.float64(-0.0)):
        got = real_value(value, "t")
        assert type(got) is float and got.hex() == float(value).hex()
    for value, shown_value in ((math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf")):
        with pytest.raises(InvalidArgument, match=f"^t must be finite, got {shown_value}$"):
            real_value(value, "t")


def test_float_weights_keep_the_weight_contract():
    # A plain float q that is finite, above 0 and not 1 passes as it is; the
    # others are refused as before.
    for q in (0.7, 1.3, 5e-324, 1e308, 1.0 + 2.0**-52):
        assert exact._weight(q) is q
    assert type(exact._weight(np.float64(0.7))) is float
    for q, problem in ((1.0, "q = 1 is excluded (uniform weights degenerate the formulas)"),
                       (0.0, "q = 0 is excluded"),
                       (-0.0, "q = 0 is excluded"),
                       (-0.5, "q must be positive"),
                       (math.nan, "q must be finite, got nan"),
                       (math.inf, "q must be finite, got inf"),
                       (np.float64(1.0), "q = 1 is excluded (uniform weights degenerate the formulas)")):
        with pytest.raises(InvalidArgument, match=f"^{re.escape(problem)}$"):
            exact._weight(q)


HUGE = 10**5000  # beyond the interpreter's 4300-digit limit on int to str
HUGE_INTEGERS = {
    "integer_value": lambda: integer_value(HUGE, "seed", 0, 10),
    "start_sequence": lambda: StartSequence((0, HUGE, 5)),
    "one_point_exit_ell": lambda: exact.one_point_exit(StartSequence((0, 2, 5)), HUGE, Fraction(7, 10)),
}


@pytest.mark.parametrize("call", HUGE_INTEGERS.values(), ids=HUGE_INTEGERS.keys())
def test_huge_integers_are_refused_with_a_bounded_message(call):
    # The refusal names the integer by its length: its repr would raise a
    # raw ValueError, or fill the message.
    with pytest.raises(InvalidArgument, match="got an integer of 5001 digits") as refusal:
        call()
    assert len(str(refusal.value)) < 100


def test_exact_weights_take_a_rational_q_too_long_to_print():
    # The float check's message names q, and is formed only for a float
    # that fails, never for an exact q.
    q = Fraction(HUGE + 1, HUGE)
    seq = StartSequence((0, 2))
    # W_1(ell) = q**ell.
    table = exact.one_point_table(seq, q)
    assert exact.perturbed_partition(seq, 1, q) == sum(h * q**ell for ell, h in enumerate(table))
    assert exact.most_likely_exit(seq, 1, q) in (0, 1, 2)


def test_shown_bounds_every_rendering():
    # Up to 2**128 an integer shows in full.
    assert shown(2**128 - 1) == repr(2**128 - 1) and shown(-3) == "-3" and shown(0.5) == "0.5"
    assert shown(2**128) == "an integer of 39 digits"
    for digits in (40, 41, 1000, 5001):
        for value in (10 ** (digits - 1), 10**digits - 1, -(10 ** (digits - 1))):
            assert shown(value) == f"an integer of {digits} digits"
    assert shown(Fraction(HUGE, 3)) == "a Fraction too long to print"
