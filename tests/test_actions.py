"""Free-energy actions and their closed-form saddle derivatives."""

import math

import mpmath
import pytest

from qpaths.actions import (
    action_bulk,
    action_free,
    action_free_dual,
    saddle_residual_t,
    saddle_residual_xi_left,
    saddle_residual_xi_right,
)
from qpaths.curves import exit_params_left, exit_params_right
from qpaths.errors import InvalidArgument
from qpaths.profile import StartDensity

UNIFORM = StartDensity([(1.0, 2.0)])
THIRDS = StartDensity([(1 / 3, 2.0), (1 / 3, 4.0), (1 / 3, 2.0)])
GAPPED = StartDensity([(1 / 2, 2.0), (1 / 2, 2.0)], jumps=[(1 / 2, 1.0)])

# (density, qq, t, construction) -- admissible tangency parameters whose
# exit height and tail length are recomputed at full precision in-test.
SADDLE_POINTS = [
    (UNIFORM, 3.0, 18.0, "right"),
    (UNIFORM, 3.0, 150.0, "right"),
    (UNIFORM, 3.0, -20.0, "left"),
    (UNIFORM, 3.0, -100.0, "left"),
    (UNIFORM, 1.0 / 3.0, 30.0, "left"),
    (THIRDS, 1e-2, -3000.0, "right"),
]


def dilog_free_action(qq, xi, z):
    """Dilogarithm antiderivative of the free-tail integrand.

    For qq > 1: ln(qq**u - 1) = u ln qq + ln(1 - qq**-u) and
    d/du Li2(qq**-u) = ln(qq) ln(1 - qq**-u), so the integral telescopes
    into four dilogarithms plus the explicit z*xi*ln(qq) term.  For
    qq < 1 the same antiderivative applies with qq**+u arguments.
    """
    log_q = math.log(qq)
    li2 = lambda x: float(mpmath.polylog(2, x))
    if qq > 1.0:
        return z * xi * log_q + (
            li2(qq ** -(xi + z)) - li2(qq**-z) - li2(qq**-xi) + li2(1.0)
        ) / log_q
    return -(li2(qq ** (xi + z)) - li2(qq**z) - li2(qq**xi) + li2(1.0)) / log_q


def params_at(d, qq, t, which):
    fn = exit_params_right if which == "right" else exit_params_left
    return fn(d, qq, t)


def test_closed_form_saddle_residuals_vanish_at_exit_points():
    for d, qq, t, which in SADDLE_POINTS:
        got = params_at(d, qq, t, which)
        assert abs(saddle_residual_t(d, qq, t, got.xi)) <= 1e-10
        if which == "right":
            r = saddle_residual_xi_right(d, qq, t, got.xi, got.z)
        else:
            r = saddle_residual_xi_left(d, qq, t, got.xi, got.z)
        assert abs(r) <= 1e-10


def test_residual_t_matches_finite_difference():
    eps = 1e-5
    for d, qq, t, which in SADDLE_POINTS:
        xi = params_at(d, qq, t, which).xi + 0.01  # off the saddle
        h = eps * abs(t)
        fd = (action_bulk(d, qq, t + h, xi) - action_bulk(d, qq, t - h, xi)) / (2 * h)
        assert saddle_residual_t(d, qq, t, xi) == pytest.approx(fd, rel=1e-6, abs=1e-6)


def test_residual_xi_matches_finite_difference():
    eps = 1e-5
    for d, qq, t, which in SADDLE_POINTS:
        got = params_at(d, qq, t, which)
        xi, z = got.xi + 0.01, got.z

        def total(x):
            if which == "right":
                return action_bulk(d, qq, t, x) + action_free(qq, x, z)
            return action_bulk(d, qq, t, x) + action_free_dual(d, qq, x, z)

        fd = (total(xi + eps) - total(xi - eps)) / (2 * eps)
        if which == "right":
            r = saddle_residual_xi_right(d, qq, t, xi, z)
        else:
            r = saddle_residual_xi_left(d, qq, t, xi, z)
        assert r == pytest.approx(fd, rel=1e-6, abs=1e-6)


def test_bulk_action_against_high_precision_quadrature():
    cases = [
        (UNIFORM, 3.0, 18.0, 1.7),
        (UNIFORM, 3.0, -20.0, 1.6),
        (THIRDS, 1e-2, -3000.0, 1.15),
    ]
    for d, qq, t, xi in cases:
        def integrand(u):
            u = float(u)
            return mpmath.log(
                (t * qq ** (u - xi) - 1.0) / (t - qq ** d.alpha(u))
            )

        pts = [0.0, *d.breakpoints_u(), 1.0]
        expected = (xi - 0.5) * math.log(qq) + float(
            mpmath.quad(integrand, pts)
        )
        assert action_bulk(d, qq, t, xi) == pytest.approx(expected, rel=1e-9, abs=1e-9)


def test_free_actions_match_dilogarithm_form():
    for qq in (3.0, 1.0 / 3.0):
        for xi, z in [(1.7, 0.25), (0.6, 1.3), (1.05, 0.02)]:
            assert action_free(qq, xi, z) == pytest.approx(
                dilog_free_action(qq, xi, z), rel=1e-9, abs=1e-10
            )
    # Dual form: area exchange term plus the same integral over the dual span.
    for qq in (3.0, 1.0 / 3.0):
        for xi, z in [(1.6, 0.9), (2.4, 0.1)]:
            span = UNIFORM.alpha_top + 1.0 - xi
            expected = z * (xi + z / 2.0) * math.log(qq) + dilog_free_action(
                qq, span, z
            )
            assert action_free_dual(UNIFORM, qq, xi, z) == pytest.approx(
                expected, rel=1e-9, abs=1e-10
            )


def test_free_action_ordering():
    # For qq > 1 the integrand ln((qq**(u+z)-1)/(qq**u-1)) is positive and
    # increasing in z, so the action is positive and monotone in z.
    a1 = action_free(3.0, 1.5, 0.2)
    a2 = action_free(3.0, 1.5, 0.6)
    assert 0.0 < a1 < a2


def test_bulk_action_rejects_sign_changing_log_argument():
    # Inside (1, qq**2) the denominator t - qq**alpha(u) changes sign
    # across u, so the log argument is not single-signed.
    with pytest.raises(InvalidArgument):
        action_bulk(UNIFORM, 3.0, 3.0, 1.5)


def test_action_argument_validation():
    with pytest.raises(InvalidArgument):
        action_bulk(UNIFORM, 1.0, 18.0, 1.7)
    with pytest.raises(InvalidArgument):
        action_bulk(UNIFORM, -3.0, 18.0, 1.7)
    with pytest.raises(InvalidArgument):
        action_bulk(UNIFORM, 3.0, 0.0, 1.7)
    with pytest.raises(InvalidArgument):
        action_free(3.0, 0.0, 0.5)
    with pytest.raises(InvalidArgument):
        action_free(3.0, 1.5, -0.1)
    with pytest.raises(InvalidArgument):
        action_free_dual(UNIFORM, 3.0, 1.5, 0.0)
    with pytest.raises(InvalidArgument):
        action_free_dual(UNIFORM, 3.0, 3.0, 0.5)  # xi beyond alpha(1) + 1
    # t = 5 lies in the gap window (3, 9), on no outer branch, whatever xi.
    for xi in (0.5, 1.5, 2.5):
        with pytest.raises(InvalidArgument):
            saddle_residual_t(GAPPED, 3.0, 5.0, xi)
