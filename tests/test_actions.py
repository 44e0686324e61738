"""Free-energy actions and their closed-form saddle derivatives."""

import math
import sys

import mpmath
import numpy as np
import pytest

from qpaths import actions, curves, quadrature
from qpaths.actions import (
    action_bulk,
    action_free,
    action_free_dual,
    saddle_residual_t,
    saddle_residual_xi_left,
    saddle_residual_xi_right,
)
from qpaths.curves import exit_params_left, exit_params_right, x_of_t
from qpaths.errors import InvalidArgument, QpathsError
from qpaths.profile import StartDensity

UNIFORM = StartDensity([(1.0, 2.0)])
THIRDS = StartDensity([(1 / 3, 2.0), (1 / 3, 4.0), (1 / 3, 2.0)])
GAPPED = StartDensity([(1 / 2, 2.0), (1 / 2, 2.0)], jumps=[(1 / 2, 1.0)])
WIDE = StartDensity([(1.0, 299.0)])  # alpha(1) + 1 = 300: dual spans up to 300
FILLED_MID = StartDensity([(1 / 3, 2.0), (1 / 3, 1.0), (1 / 3, 2.0)])

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


def mp_free_integral(qq, span, z):
    """int_0^span ln((qq**(u+z) - 1)/(qq**u - 1)) du at 50 digits.

    With l = |ln qq| and phi(s) = ln(1 - e**(-s l)) the integrand is
    z max(ln qq, 0) + phi(u+z) - phi(u), so the integral telescopes into
    z span max(ln qq, 0) + int_b^(a+b) phi - int_0^a phi, with
    {a, b} = {span, z} and a <= b.  Both run over [0, 1] after scaling by
    a (tanh-sinh loses digits on an interval 1e-300 long), split at 1, 10,
    100 and 1000 times 1/l.
    """
    with mpmath.workdps(50):
        qq, span, z = mpmath.mpf(qq), mpmath.mpf(span), mpmath.mpf(z)
        log_q = mpmath.log(qq)
        ell = abs(log_q)
        a, b = min(span, z), max(span, z)

        def piece(s0):
            cuts = [(k / ell - s0) / a for k in (1, 10, 100, 1000)]
            pts = [0, *sorted(c for c in cuts if 0 < c < 1), 1]
            val, err = mpmath.quad(
                lambda x: mpmath.log(-mpmath.expm1(-(s0 + a * x) * ell)), pts, error=True
            )
            assert err <= mpmath.mpf(10) ** -30 * (1 + abs(val))
            return val

        return z * span * max(log_q, 0) + a * (piece(b) - piece(0))


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

        pts = sorted({0.0, *(el.u_hi for el in d.elements)})
        expected = (xi - 0.5) * math.log(qq) + float(
            mpmath.quad(integrand, pts)
        )
        assert action_bulk(d, qq, t, xi) == pytest.approx(expected, rel=1e-9, abs=1e-9)


def mp_bulk_action(d, qq, t, xi):
    """S_bulk at 60 digits, the integral split at the element ends, at
    u* = xi - ln|t| / ln qq and where qq**alpha(u) = |t|: next to each,
    the integrand turns on a scale of 1/|ln qq|.  Tanh-sinh of degree 5
    meets 1e-16 there, a hundred thousandth of the tolerance it checks."""
    with mpmath.workdps(60):
        t, xi = mpmath.mpf(t), mpmath.mpf(xi)
        log_q = mpmath.log(qq)
        tau = mpmath.log(abs(t)) / log_q
        total = (xi - mpmath.mpf(0.5)) * log_q
        for el in d.segment_elements():
            u_lo, u_hi = mpmath.mpf(el.u_lo), mpmath.mpf(el.u_hi)
            a_lo, p = mpmath.mpf(el.a_lo), mpmath.mpf(el.p)
            cuts = (xi - tau, u_lo + (tau - a_lo) / p)
            pts = [u_lo, *sorted(c for c in cuts if u_lo < c < u_hi), u_hi]
            val, err = mpmath.quad(
                lambda u: mpmath.log(
                    (t * mpmath.exp((u - xi) * log_q) - 1)
                    / (t - mpmath.exp((a_lo + p * (u - u_lo)) * log_q))
                ),
                pts,
                maxdegree=5,
                error=True,
            )
            assert err <= 1e-16
            total += val
        return total


def assert_bulk_action_matches_mpmath(densities, bases, ts, xis):
    # The error is measured against the size of the (xi - 1/2) ln qq term.
    for d in densities:
        for qq in bases:
            for t in ts:
                for xi in xis:
                    expected = mp_bulk_action(d, qq, t, xi)
                    got = action_bulk(d, qq, t, xi)
                    tol = 1e-11 * (1.0 + abs(xi - 0.5) * abs(math.log(qq)))
                    assert abs(got - expected) <= tol, (d, qq, t, xi, got)


def test_bulk_action_against_mpmath_at_extreme_bases():
    # Bases where qq**(u - xi) or qq**alpha(u) leaves the double range.
    assert_bulk_action_matches_mpmath((UNIFORM, THIRDS, GAPPED),
                                      (1e-300, 1e-150, 1e-20, 1e20, 1e200, 1e250),
                                      (-1e5, -20.0, -1.0, -1e-3), (0.3, 1.5, 2.5))


def test_bulk_plus_free_action_derivative_at_extreme_bases():
    # The central difference in xi of bulk plus free action is the closed
    # right xi residual, also where qq**xi leaves the double range.
    eps = 1e-4
    for qq in (1e-300, 1e200):
        for t in (-20.0, -1.0):
            for xi, z in ((0.3, 0.5), (1.5, 2.0)):
                def total(x):
                    return action_bulk(UNIFORM, qq, t, x) + action_free(qq, x, z)

                fd = (total(xi + eps) - total(xi - eps)) / (2 * eps)
                r = saddle_residual_xi_right(UNIFORM, qq, t, xi, z)
                assert abs(r - fd) <= 1e-8 * abs(math.log(qq)), (qq, t, xi, r, fd)


def mp_t_residual(d, qq, t, xi):
    """The t residual at 60 digits, as the t derivative under the integral
    of S_bulk: int_0^1 1/(t - qq**(xi - u)) - 1/(t - qq**alpha(u)) du, split
    where mp_bulk_action splits."""
    with mpmath.workdps(60):
        t, xi = mpmath.mpf(t), mpmath.mpf(xi)
        log_q = mpmath.log(qq)
        tau = mpmath.log(abs(t)) / log_q
        total = mpmath.mpf(0)
        for el in d.segment_elements():
            u_lo, u_hi = mpmath.mpf(el.u_lo), mpmath.mpf(el.u_hi)
            a_lo, p = mpmath.mpf(el.a_lo), mpmath.mpf(el.p)
            cuts = (xi - tau, u_lo + (tau - a_lo) / p)
            pts = [u_lo, *sorted(c for c in cuts if u_lo < c < u_hi), u_hi]
            val, err = mpmath.quad(
                lambda u: 1 / (t - mpmath.exp((xi - u) * log_q))
                - 1 / (t - mpmath.exp((a_lo + p * (u - u_lo)) * log_q)),
                pts,
                maxdegree=6,
                error=True,
            )
            assert err <= 1e-20
            total += val
        return total


def test_residual_t_against_mpmath_at_extreme_bases():
    # Bases where a pole qq**alpha(u) leaves the double range.  The
    # residual is (boundary + ln x) / (t ln qq), and each log term rounds
    # to a few units of ln|qq|'s last place, so the error stays below
    # 1e-14 / |t|.
    for d in (UNIFORM, THIRDS, GAPPED):
        for qq in (1e-300, 1e200):
            for t in (-20.0, -1.0):
                for xi in (0.3, 1.5):
                    expected = mp_t_residual(d, qq, t, xi)
                    got = saddle_residual_t(d, qq, t, xi)
                    assert abs(got - expected) <= 1e-14 / abs(t), (d, qq, t, xi, got)


def test_residual_t_matches_the_direct_closed_form():
    # Where every pole qq**a is a double, ln x(t) in log space agrees with
    # the log of the closed product form x_of_t.  Off the outer branches,
    # or where the boundary term's log argument is negative, it raises.
    for d in (UNIFORM, THIRDS, GAPPED):
        for qq in (3.0, 1 / 3, 1e-2, 1e3, 1e-20, 1e20):
            log_q = math.log(qq)
            for t in (-1e5, -20.0, -1.0, -1e-3, 1e-3, 0.5, 3.0, 18.0, 1e5):
                outer = t < 0 or not 0 <= math.log(t) / log_q <= d.alpha_top
                for xi in (0.3, 1.5, 2.5):
                    num, den = t * qq ** (1 - xi) - 1, t * qq ** (-xi) - 1
                    # den is 0 at qq = 1e-2, t = 1e-3, xi = 1.5.
                    ratio = num / den if den else 0.0
                    if not outer or ratio <= 0:
                        with pytest.raises(InvalidArgument):
                            saddle_residual_t(d, qq, t, xi)
                        continue
                    direct = (math.log(ratio) + math.log(x_of_t(d, qq, t))) / (t * log_q)
                    got = saddle_residual_t(d, qq, t, xi)
                    assert abs(got - direct) <= 1e-12 * max(1.0, abs(direct)), (d, qq, t, xi)


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


def test_free_actions_against_mpmath():
    cases = [
        (qq, xi, z)
        for qq in (1e-300, 1e-20, 1.0 / 3.0, 3.0, 1e20, 1e300)
        for xi in (1e-12, 0.5, 300.0)
        for z in (1e-300, 1e-12, 0.5, 5.0)
    ]
    # An action of 1.4e-12, and one of 0.0024, both far below the
    # quadrature's absolute tolerance; a tail below the smallest normal
    # double, where span / z overflows.
    cases += [(3.0, 1e-12, 1e-12), (1e-300, 0.5, 0.5), (3.0, 0.5, 1e-310)]
    assert_free_actions_match_mpmath(cases)


def assert_free_actions_match_mpmath(cases):
    for qq, xi, z in cases:
        free = mp_free_integral(qq, xi, z)
        got = action_free(qq, xi, z)
        assert abs(got - free) <= 1e-12 * abs(free), (qq, xi, z, got)
        # The same span on the dual side, as the library rounds it.
        xi_dual = WIDE.alpha_top + 1.0 - xi
        span = WIDE.alpha_top + 1.0 - xi_dual
        if span != xi:
            free = mp_free_integral(qq, span, z)
        expected = z * (mpmath.mpf(xi_dual) + mpmath.mpf(z) / 2) * mpmath.log(qq) + free
        got = action_free_dual(WIDE, qq, xi_dual, z)
        assert abs(got - expected) <= 1e-12 * abs(expected), (qq, xi_dual, z, got)


def mp_xi_residual(qq, t, xi, z, span=None, dps=50):
    """The xi residual's own and integral terms at dps digits: right, or left
    with its span. The residual is their difference."""
    with mpmath.workdps(dps):
        q, xi, z = mpmath.mpf(qq), mpmath.mpf(xi), mpmath.mpf(z)
        log_q = mpmath.log(q)
        integral = mpmath.log((t * q ** (1 - xi) - 1) / (t * q ** (-xi) - 1))
        if span is None:
            own = log_q + mpmath.log(mpmath.expm1((xi + z) * log_q) / mpmath.expm1(xi * log_q))
        else:
            span = mpmath.mpf(span)
            ratio = mpmath.expm1(span * log_q) / mpmath.expm1((span + z) * log_q)
            own = (z + 1) * log_q + mpmath.log(ratio)
        return own, integral


def test_xi_residuals_against_mpmath_across_bases():
    # Both terms run in log space, so bases where qq**(xi+z) or qq**(-xi)
    # leaves the double range (1e200 and 1e-200 at xi = 1.5, z = 2) still
    # give finite residuals.
    cases = [
        (qq, xi, z)
        for qq in (1e-300, 1e-200, 1e-20, 1.0 / 3.0, 3.0, 1e20, 1e200, 1e300)
        for xi in (1e-12, 0.5)
        for z in (1e-12, 0.5, 2.0)
    ]
    cases += [(1e200, 1.5, 2.0), (1e300, 1.5, 2.0), (1e-300, 1.5, 2.0), (1e-200, 1.5, 2.0)]
    # The residual is a difference of two terms, so its error is measured
    # against their size: at xi = z = 1e-12 they cancel to 1e-13.
    t = -1.0
    for qq, xi, z in cases:
        for fn, span in (
            (saddle_residual_xi_right, None),
            (saddle_residual_xi_left, UNIFORM.alpha_top + 1.0 - xi),
        ):
            own, integral = mp_xi_residual(qq, t, xi, z, span)
            got = fn(UNIFORM, qq, t, xi, z)
            error = abs(got - (own - integral))
            assert error <= 1e-13 * (abs(own) + abs(integral)), (fn.__name__, qq, xi, z, got)


# |t| on both outer branches: at 3, t > 0 is on the right branch and t < 0
# on the left; at 1/3 and 1e-300 the other way round.
LARGE_T = [s * 10.0**k for k in (3, 8, 16, 30, 100) for s in (1.0, -1.0)]


def mp_log_quotient(t, b, c, qq):
    """ln((t - qq**b) / (t - qq**c)) at the working precision, None where the
    quotient is not positive."""
    quotient = (t - mpmath.power(qq, b)) / (t - mpmath.power(qq, c))
    return mpmath.log(quotient) if quotient > 0 else None


def mp_large_t(d, qq, t, xi):
    """(t residual, bulk action) in mpmath, None where the library refuses.

    The t residual from its closed form (ln((t - qq**(xi-1)) / (t - qq**xi))
    + ln(qq x(t))) / (t ln qq) at 400 digits, ln(qq x) summing
    ln((t - E_hi) / (t - E_lo)) / p over the segments: each log is of a
    quotient within about 1/|t| of 1, so 400 digits keep every digit out to
    |t| = 1e100.  The bulk action at 150 digits where both factors keep one
    sign over u (t < 0, or t beyond every pole): ln|t - e**(A + B u)|
    integrates over [u0, u1] to (u1 - u0) ln|t| + (Li2(e**(A + B u0) / t)
    - Li2(e**(A + B u1) / t)) / B, and the ln|t| terms cancel.  On this grid
    it meets 150-digit quadrature to 1e-55.
    """
    with mpmath.workdps(400):
        q, t, xi = mpmath.mpf(qq), mpmath.mpf(t), mpmath.mpf(xi)
        boundary = mp_log_quotient(t, xi - 1, xi, q)
        log_qx = mpmath.fsum(mp_log_quotient(t, el.a_hi, el.a_lo, q) / el.p
                             for el in d.segment_elements())
        r_t = None if boundary is None else (boundary + log_qx) / (t * mpmath.log(q))
        if t > 0 and t < max(mpmath.power(q, a) for a in (xi - 1, xi, 0, d.alpha_top)):
            return r_t, None
    with mpmath.workdps(150):
        log_q = mpmath.log(q)

        def integral_log1m(a, b, u0, u1):
            return (mpmath.polylog(2, mpmath.exp(a + b * u0) / t)
                    - mpmath.polylog(2, mpmath.exp(a + b * u1) / t)) / b

        bulk = mpmath.mpf(0)
        for el in d.segment_elements():
            u0, u1, a_lo, p = (mpmath.mpf(v) for v in (el.u_lo, el.u_hi, el.a_lo, el.p))
            bulk += (integral_log1m(xi * log_q, -log_q, u0, u1)
                     - integral_log1m((a_lo - p * u0) * log_q, p * log_q, u0, u1))
    return r_t, bulk


def test_residuals_and_bulk_action_at_large_t_against_mpmath():
    # The boundary term ln((t - qq**(xi-1)) / (t - qq**xi)) and ln(qq x) are
    # each O(1/t) and their sum is not smaller, so the t residual must keep
    # its relative digits as |t| grows: formed as a difference of two logs of
    # size ln|t|, it changed sign from |t| = 1e16 on.  The xi residuals and
    # the bulk action are held to the same relative tolerance.  A value below
    # the normal doubles (an xi residual of 1e-340 at qq = 1e-300, t = 1e100)
    # is held to that tolerance of the least normal double.
    z = 0.5

    def close(got, expected):
        return abs(got - expected) <= 1e-12 * max(abs(expected), sys.float_info.min)

    for d in (UNIFORM, THIRDS):
        for qq in (3.0, 1 / 3, 1e-300):
            for t in LARGE_T:
                for xi in (0.5, 1.2, 1.8):
                    r_t, bulk = mp_large_t(d, qq, t, xi)
                    case = (d, qq, t, xi)
                    if r_t is None:
                        with pytest.raises(InvalidArgument, match="t residual"):
                            saddle_residual_t(d, qq, t, xi)
                    else:
                        assert close(saddle_residual_t(d, qq, t, xi), r_t), case
                    if bulk is None:
                        with pytest.raises(InvalidArgument, match="bulk action"):
                            action_bulk(d, qq, t, xi)
                    else:
                        assert close(action_bulk(d, qq, t, xi), bulk), case
                    for fn, span in ((saddle_residual_xi_right, None),
                                     (saddle_residual_xi_left, d.alpha_top + 1.0 - xi)):
                        if r_t is None:
                            with pytest.raises(InvalidArgument, match="xi residual"):
                                fn(d, qq, t, xi, z)
                            continue
                        own, integral = mp_xi_residual(qq, t, xi, z, span, dps=400)
                        assert close(fn(d, qq, t, xi, z), own - integral), (fn, case)


def test_t_residual_brackets_its_root_on_the_right_branch():
    # For xi between X_top (the exit height at t = 1e12) and alpha(1), the t
    # residual changes sign between the right branch's end qq**alpha(1) and
    # e**60, and its root is the tangency whose exit height is xi: the
    # bracket a root finder for the exit rate needs.  THIRDS is CORNERED.
    qq = 3.0
    for d in (UNIFORM, THIRDS):
        x_top = exit_params_right(d, qq, 1e12).xi
        for k in range(1, 8):
            xi = x_top + (d.alpha_top - x_top) * k / 8

            def residual(log_t):
                return saddle_residual_t(d, qq, math.exp(log_t), xi)

            lo, hi = math.log(qq**d.alpha_top * (1.0 + 1e-9)), 60.0
            below = residual(lo) > 0.0
            assert below != (residual(hi) > 0.0), (d, xi)
            while True:
                mid = 0.5 * (lo + hi)
                if mid in (lo, hi):
                    break
                if (residual(mid) > 0.0) == below:
                    lo = mid
                else:
                    hi = mid
            assert abs(exit_params_right(d, qq, math.exp(lo)).xi - xi) <= 1e-12, (d, xi)


def quad_bulk_action(d, qq, t, xi):
    """S_bulk by the adaptive quadrature, one linear segment at a time, at
    a base where every qq**b is a double."""
    total = 0.0
    for el in d.segment_elements():
        def integrand(u, el=el):
            return math.log((t - qq ** (xi - u)) / (t - qq ** (el.a_lo + el.p * (u - el.u_lo))))

        total += quadrature.integrate(integrand, el.u_lo, el.u_hi, rel_tol=1e-13, abs_tol=1e-14)
    return total


def test_actions_and_residuals_need_no_quadrature(monkeypatch):
    # Criterion 09's grid: UNIFORM at qq = 3, both constructions, xi +- 1e-5.
    # The references come first: the bulk action by the quadrature, the free
    # actions by mpmath's dilogarithm, the t residual from the product form
    # of x(t), the xi residuals from mp_xi_residual.  Then every quadrature
    # route raises, and the closed forms must still meet them.
    qq, eps = 3.0, 1e-5
    log_q = math.log(qq)
    cases = []
    for which, fn, ts in (
        ("right", exit_params_right, np.geomspace(9.3, 1e6, 28)),
        ("left", exit_params_left, -np.geomspace(12.5, 1e6, 40)),
    ):
        for t in (float(v) for v in ts):
            try:
                v = fn(UNIFORM, qq, t)
            except QpathsError:
                continue
            for xi in (v.xi + eps, v.xi - eps):
                span = xi if which == "right" else UNIFORM.alpha_top + 1.0 - xi
                free = dilog_free_action(qq, span, v.z)
                if which == "left":
                    free += v.z * (xi + v.z / 2.0) * log_q
                ratio = (t * qq ** (1 - xi) - 1) / (t * qq ** (-xi) - 1)
                r_t = (math.log(ratio) + math.log(x_of_t(UNIFORM, qq, t))) / (t * log_q)
                own, integral = mp_xi_residual(qq, t, xi, v.z, None if which == "right" else span)
                cases.append((which, t, xi, v.z, quad_bulk_action(UNIFORM, qq, t, xi), free,
                              r_t, float(own - integral), float(abs(own) + abs(integral))))
    assert len(cases) >= 80

    def refuse(*args, **kwargs):
        raise AssertionError("quadrature called")

    # actions itself gets the refusal too, so an import of integrate there
    # would be caught.
    for owner in (quadrature, curves, actions):
        monkeypatch.setattr(owner, "integrate", refuse, raising=False)
    for which, t, xi, z, bulk, free, r_t, r_xi, size in cases:
        assert action_bulk(UNIFORM, qq, t, xi) == pytest.approx(bulk, rel=1e-12, abs=1e-12)
        if which == "right":
            got_free = action_free(qq, xi, z)
            got_xi = saddle_residual_xi_right(UNIFORM, qq, t, xi, z)
        else:
            got_free = action_free_dual(UNIFORM, qq, xi, z)
            got_xi = saddle_residual_xi_left(UNIFORM, qq, t, xi, z)
        assert got_free == pytest.approx(free, rel=1e-12, abs=1e-14)
        assert abs(saddle_residual_t(UNIFORM, qq, t, xi) - r_t) <= 1e-12 * max(1.0, abs(r_t))
        assert abs(got_xi - r_xi) <= 1e-13 * size


def test_dilogarithm_kernel_against_mpmath():
    # Li2(sigma e**(-d)) over [-1, 1]: both ends, the series' switch at 1/2,
    # x = 1 - 2**-k next to 1 and tiny |x|.  The reference takes the kernel's
    # own d, so only the kernel's rounding is measured.
    xs = [k / 32 for k in range(-32, 33) if k]
    xs += [s * (1 - 2.0**-k) for k in range(1, 53) for s in (1, -1)]
    xs += [s * 10.0**-k for k in range(1, 308, 7) for s in (1, -1)]
    xs += [0.5 - 1e-12, 0.5 + 1e-12]
    with mpmath.workdps(40):
        for x in xs:
            sigma, d = math.copysign(1.0, x), -math.log(abs(x))
            expected = mpmath.polylog(2, sigma * mpmath.exp(-mpmath.mpf(d)))
            got = actions._li2(sigma, d)
            assert abs(got - expected) <= 1e-15 * abs(expected), (x, got)


def test_dilogarithm_mean_against_mpmath():
    # The divided difference on both sides of its long-interval switch, at
    # either sign, from d0 = 0 (the log singularity), across ln 2 and far out.
    ln2 = math.log(2.0)
    with mpmath.workdps(40):
        for sigma in (1.0, -1.0):
            for d0 in (0.0, 1e-300, 1e-8, 0.3, ln2 - 1e-9, ln2, 0.9, 5.0, 400.0):
                for width in (1e-14, 1e-8, 1e-3, 0.5, 0.999, 1.0, 3.0, 1e3):
                    lo, hi = mpmath.mpf(d0), mpmath.mpf(d0) + mpmath.mpf(width)
                    expected = (mpmath.polylog(2, sigma * mpmath.exp(-hi))
                                - mpmath.polylog(2, sigma * mpmath.exp(-lo))) / mpmath.mpf(width)
                    got = actions._mean_log1m(sigma, d0, width)
                    assert abs(got - expected) <= 2e-15 * max(1.0, abs(expected)), (
                        sigma, d0, width, got)


NEAR_ONE = [1.0 + s * 10.0**-k for k in range(1, 9) for s in (1, -1)]


def test_bulk_action_against_mpmath_near_base_one():
    # The exponent intervals shrink like |ln qq|; a difference of two
    # dilogarithms there would lose 1e-16 / |ln qq|.
    assert_bulk_action_matches_mpmath((THIRDS, GAPPED), NEAR_ONE, (-20.0, -1e-3, 20.0), (0.3, 2.5))


def test_free_actions_against_mpmath_near_base_one():
    # test_free_actions_against_mpmath holds the mixed case (1e-300, 1e-12,
    # 0.5), where C(a) - C(a + b) with b << 1 << a would cancel.
    assert_free_actions_match_mpmath([(qq, xi, z) for qq in NEAR_ONE for xi in (1e-12, 0.5, 300.0)
                                      for z in (1e-300, 1e-12, 5.0)])


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
    # The xi residuals share their action's domain.
    for xi, z in ((-1.0, -0.5), (0.0, 0.5), (1.7, 0.0)):
        with pytest.raises(InvalidArgument):
            saddle_residual_xi_right(UNIFORM, 3.0, 18.0, xi, z)
    for xi, z in ((4.0, 0.5), (3.0, 0.5), (1.6, 0.0), (1.6, -0.5)):
        with pytest.raises(InvalidArgument):
            saddle_residual_xi_left(UNIFORM, 3.0, -20.0, xi, z)
    # t = 5 lies in the gap window (3, 9), on no outer branch, whatever xi.
    for xi in (0.5, 1.5, 2.5):
        with pytest.raises(InvalidArgument):
            saddle_residual_t(GAPPED, 3.0, 5.0, xi)
    # t qq**(-xi) = 1 exactly: the t residual's log argument is zero.
    with pytest.raises(InvalidArgument, match="t residual"):
        saddle_residual_t(UNIFORM, 2.0, 0.5, -1.0)


def test_a_branch_end_to_rounding_lies_on_no_branch():
    # t = 1e5 is qq**alpha(1) = 1e3**(5/3) to rounding; the double pole lies
    # 7 ulps below it, so t - qq**alpha(1) is all rounding: x(t) came out
    # 3.2e-11 and the t residual -2.404e-5, where 60 digits give -2.496e-5.
    # One branch-end rule rejects the point for every evaluator.
    qq, end = 1e3, 1e5
    for call in (
        lambda t: x_of_t(FILLED_MID, qq, t),
        lambda t: exit_params_right(FILLED_MID, qq, t),
        lambda t: saddle_residual_t(FILLED_MID, qq, t, 1.5),
    ):
        with pytest.raises(InvalidArgument, match="lies on no branch"):
            call(end)
    # The rule spans a few units of rounding; 1e-12 away, t is on the branch.
    assert x_of_t(FILLED_MID, qq, end * (1.0 + 1e-12)) > 0.0
    assert math.isfinite(saddle_residual_t(FILLED_MID, qq, end * (1.0 + 1e-12), 1.5))
