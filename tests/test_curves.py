"""Arctic-curve machinery: weights x(t), branches, exit parameters."""

import math
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from qpaths.actions import saddle_residual_t
from qpaths.curves import (
    _log_shift,
    _log_shift_array,
    _pole_free,
    _Scaled,
    _scaled,
    arctic_curve,
    arctic_point,
    exit_params_left,
    exit_params_right,
    geodesic,
    t_domains,
    tangent_curve,
    x_of_t,
)
from qpaths.errors import InvalidArgument, NumericalFailure, SingularPoint
from qpaths.profile import StartDensity

UNIFORM = StartDensity([(1.0, 2.0)])  # alpha(u) = 2u
THIRDS = StartDensity([(1 / 3, 2.0), (1 / 3, 4.0), (1 / 3, 2.0)])
FILLED = StartDensity([(1 / 3, 2.0), (1 / 3, 1.0), (1 / 3, 2.0)])
GAPPED = StartDensity([(1 / 2, 2.0), (1 / 2, 2.0)], jumps=[(1 / 2, 1.0)])
CORNERED = StartDensity([(1 / 3, 2.0), (1 / 3, 4.0), (1 / 3, 2.0)])


def uniform_x(qq, t):
    """Closed form for alpha(u) = 2u: x = (1/qq) sqrt((t - qq^2)/(t - 1))."""
    return math.sqrt((t - qq**2) / (t - 1.0)) / qq


def admissible_ts(qq):
    if qq > 1.0:
        right = [qq**2 * (1.0 + s) for s in np.geomspace(1e-6, 1e4, 25)]
        left = [1.0 - s for s in np.geomspace(1e-6, 0.99, 13)] + [
            -s for s in np.geomspace(1e-3, 1e4, 12)
        ]
    else:
        right = [qq**2 * (1.0 - s) for s in np.geomspace(1e-6, 0.99, 13)] + [
            -s for s in np.geomspace(1e-3, 1e4, 12)
        ]
        left = [1.0 + s for s in np.geomspace(1e-6, 1e4, 25)]
    return right + left


def test_uniform_density_closed_form():
    for qq in (3.0, 1.0 / 3.0):
        for t in admissible_ts(qq):
            expected = uniform_x(qq, t)
            assert x_of_t(UNIFORM, qq, t) == pytest.approx(expected, rel=1e-12)


def test_uniform_density_quadrature_route():
    for qq in (3.0, 1.0 / 3.0):
        for t in (admissible_ts(qq)[::5]):
            quad = x_of_t(UNIFORM, qq, t, method="quadrature")
            assert quad == pytest.approx(uniform_x(qq, t), rel=1e-8)


@pytest.mark.parametrize("qq, t", [
    (3.0, 9.0 * (1 + 1e-9)),
    (1.0 / 3.0, (1 - 1e-9) / 9.0),
    (3.0, 9.0 * (1 + 1e-12)),
    (1.0 / 3.0, (1 - 1e-12) / 9.0),
])
def test_quadrature_route_next_to_a_branch_end(qq, t):
    # The pole of t/(t - qq**a) just past the element end is integrated in
    # closed form, so the quadrature only sees a bounded remainder.
    assert x_of_t(UNIFORM, qq, t, method="quadrature") == pytest.approx(uniform_x(qq, t), rel=1e-12)


def test_pole_free_remainder_against_mpmath():
    # 1/z - 1/expm1(z) is the difference of two terms near 1/z for small z:
    # formed directly it keeps no digit at |z| = 1e-16.
    for z in (0.0, 1e-300, 1e-16, 1e-8, 0.0999, 0.1, 1.0, 30.0, 700.0, 1e3):
        for z in (z, -z):
            with mpmath.workdps(400):
                exact = 0.5 if z == 0.0 else 1 / mpmath.mpf(z) - 1 / mpmath.expm1(z)
            assert _pole_free(z) == pytest.approx(float(exact), rel=1e-14), z


@pytest.mark.parametrize("positive", [True, False])
def test_log_shift_scalar_and_array_agree(positive):
    # The pole kernel's one primitive ln|sigma e**y - 1|, once for floats and
    # once for numpy arrays.
    ys = [*np.linspace(-800.0, 800.0, 3201), *(s * 10.0**k for s in (-1.0, 1.0)
                                              for k in range(-323, 1, 7)), 0.0, -0.0]
    with np.errstate(divide="ignore"):
        array = _log_shift_array(np.array(ys), positive)
    for y, got in zip(ys, array.tolist()):
        if positive and y == 0.0:
            # ln 0: the array form gives -inf, the float form raises.
            assert got == -math.inf
            with pytest.raises(InvalidArgument):
                _log_shift(y, positive)
            continue
        expected = _log_shift(y, positive)
        assert abs(got - expected) <= 2 * math.ulp(expected), y


def mp_weight(d, qq, t, sign):
    """x(t) and x'(t) in the closed product form at 60 digits."""
    with mpmath.workdps(60):
        q, t = mpmath.mpf(qq), mpmath.mpf(t)
        log_x, dlog_x = -mpmath.log(q), mpmath.mpf(0)
        for el in d.segment_elements():
            e_lo, e_hi = q ** mpmath.mpf(el.a_lo), q ** mpmath.mpf(el.a_hi)
            log_x += (mpmath.log(abs(t - e_hi)) - mpmath.log(abs(t - e_lo))) / el.p
            dlog_x += (e_hi - e_lo) / ((t - e_hi) * (t - e_lo)) / el.p
        x = sign * mpmath.exp(log_x)
        return x, x * dlog_x


# t = 0 meets every pole beyond the doubles in the kernel's t = 0 case.
EXTREME_TS = [s * 10.0**k for s in (1.0, -1.0) for k in range(-320, 309, 20)] + [
    10.0**(s * k) for s in (1.0, -1.0) for k in (201.5, 301.5, 303.0, 305.0, 307.0)] + [0.0]


@pytest.mark.parametrize("qq", [1e-300, 1e-200, 1e200, 1e300])
@pytest.mark.parametrize("d", [UNIFORM, CORNERED, GAPPED], ids=["uniform", "cornered", "gapped"])
def test_weights_at_extreme_bases_against_mpmath(d, qq):
    # Bases where poles qq**a leave the doubles: the full ladder, and x(t)
    # both ways and s = t x'(t) / x(t) at double t on every branch that
    # holds one.
    doms = t_domains(d, qq)
    assert [dom.branch for dom in doms] == ["right", "left"] + ["gap_window_1"] * (d is GAPPED)
    for dom in doms:
        ts = [t for t in EXTREME_TS if t in dom]
        if dom.branch == "right" and qq > 1.0:
            # (qq**alpha(1), inf) starts past the largest double.
            assert not ts and dom.lo == math.inf
            continue
        assert len(ts) >= 4, dom.branch
        sc = _scaled(d, qq)
        for t in ts:
            x, dx = mp_weight(d, qq, t, dom.sign_of_x)
            for got in (x_of_t(d, qq, t), x_of_t(d, qq, t, method="quadrature")):
                assert abs(got - x) <= 1e-12 * abs(x), (dom.branch, t)
            s = float(t * dx / x)
            if 1e-300 < abs(s) < 1e300:
                got = float(sc.terms(t, dom.sign_of_x)[3])
                assert abs(got - s) <= 1e-12 * abs(s), (dom.branch, t)


@pytest.mark.parametrize("qq", [1e-300, 1e300])
@pytest.mark.parametrize("d", [UNIFORM, CORNERED, GAPPED], ids=["uniform", "cornered", "gapped"])
def test_arctic_curve_at_extreme_bases(d, qq):
    # Every branch with a double t gives an arc; the right branch at
    # qq > 1, which holds none, raises and names itself.
    for dom in t_domains(d, qq):
        if dom.branch == "right" and qq > 1.0:
            with pytest.raises(NumericalFailure, match="the right branch lies beyond"):
                arctic_curve(d, qq, dom, n_samples=60)
            continue
        curve = arctic_curve(d, qq, dom, n_samples=60)
        assert len(curve) >= 40 and curve.skipped == 0, dom.branch
        assert all(math.isfinite(v) for point in curve.points for v in point)
    if d is UNIFORM and qq < 1.0:
        # Below the normal doubles x(t) ~ 1/qq overflows at every t of the
        # left branch, so no point of it is regular.
        with pytest.raises(NumericalFailure, match="no point of branch left is regular at base 1e-310"):
            arctic_curve(d, 1e-310, t_domains(d, 1e-310)[1], n_samples=60)


def test_x_of_t_rejects_unknown_method():
    with pytest.raises(InvalidArgument):
        x_of_t(UNIFORM, 3.0, 18.0, method="series")


def test_x_off_domain_rejected():
    for t in (3.0, 9.0, 1.0):
        with pytest.raises(InvalidArgument):
            x_of_t(UNIFORM, 3.0, t)
    with pytest.raises(InvalidArgument):
        x_of_t(UNIFORM, 1.0 / 3.0, 0.5)
    # A non-finite t lies on no branch, and the evaluators refuse it as
    # errors.real_value does.
    for t in (math.nan, math.inf, -math.inf):
        assert not any(t in dom for dom in t_domains(UNIFORM, 3.0))
        for evaluate in (x_of_t, tangent_curve):
            with pytest.raises(InvalidArgument, match="^t must be finite"):
                evaluate(UNIFORM, 3.0, t)


def test_base_validation():
    for qq in (1.0, 0.0, -2.0):
        with pytest.raises(InvalidArgument):
            x_of_t(UNIFORM, qq, 18.0)


def test_t_domains_layout():
    right, left = t_domains(UNIFORM, 3.0)
    assert right.branch == "right" and right.lo == pytest.approx(9.0)
    assert math.isinf(right.hi)
    assert left.branch == "left" and left.hi == pytest.approx(1.0)
    assert 18.0 in right and 0.5 in left and -50.0 in left
    assert 3.0 not in right and 3.0 not in left

    right, left = t_domains(UNIFORM, 1.0 / 3.0)
    assert right.hi == pytest.approx(1.0 / 9.0) and math.isinf(right.lo)
    assert left.lo == pytest.approx(1.0)
    assert -5.0 in right and 0.05 in right and 30.0 in left


def test_t_domains_with_windows():
    doms = t_domains(FILLED, 0.01)
    labels = [dom.branch for dom in doms]
    assert labels[:2] == ["right", "left"]
    assert labels[2] == "filled_window_1"
    window = doms[2]
    assert window.sign_of_x == -1
    lo, hi = sorted((0.01**1.0, 0.01 ** (2 / 3)))
    assert (window.lo, window.hi) == pytest.approx((lo, hi))

    doms = t_domains(GAPPED, 3.0)
    assert doms[2].branch == "gap_window_1"
    assert doms[2].sign_of_x == 1
    assert (doms[2].lo, doms[2].hi) == pytest.approx((3.0, 9.0))


def test_window_weight_signs_and_quadrature():
    # Filled window: the analytic continuation makes x negative and the
    # defining integral is a principal value.
    for t in (0.015, 0.025, 0.04):
        closed = x_of_t(FILLED, 0.01, t)
        assert closed < 0.0
        assert x_of_t(FILLED, 0.01, t, method="quadrature") == pytest.approx(
            closed, rel=1e-8
        )
    for t in (4.0, 6.0, 8.0):
        closed = x_of_t(GAPPED, 3.0, t)
        assert closed > 0.0
        assert x_of_t(GAPPED, 3.0, t, method="quadrature") == pytest.approx(
            closed, rel=1e-8
        )


def test_filled_window_exponent_against_scipy_cauchy():
    # Inside FILLED's filled window (a in (2/3, 1)) the exponent
    # int_0^1 t du / (t - qq**alpha(u)) is a principal value at
    # a = tau = ln t / ln qq.  QUADPACK's Cauchy-weight rule takes the
    # window element, its plain rule the other two.
    qq = 0.01
    log_q = math.log(qq)
    for t in (0.015, 0.025, 0.04):
        tau = math.log(t) / log_q
        expected = 0.0
        for el in FILLED.segment_elements():
            if el.a_lo < tau < el.a_hi:
                numerator = lambda a: t * (a - tau) / (t - qq**a)
                part = scipy.integrate.quad(numerator, el.a_lo, el.a_hi, weight="cauchy", wvar=tau,
                                            epsabs=1e-14, epsrel=1e-13)[0]
            else:
                part = scipy.integrate.quad(lambda a: t / (t - qq**a), el.a_lo, el.a_hi,
                                            epsabs=1e-14, epsrel=1e-13)[0]
            expected += part / el.p
        x = x_of_t(FILLED, qq, t, method="quadrature")
        assert x < 0.0
        assert -math.log(-x) / log_q == pytest.approx(expected, rel=1e-10)


SPLIT_FILLED = StartDensity([(0.25, 2.0), (0.25, 1.0), (0.25, 1.0), (0.25, 2.0)])


def test_split_filled_window_is_one_window():
    # The two slope-1 pieces are one element, so their seam t = 3**0.75
    # is no pole of x(t) but an interior point of the window.
    seam = 3.0**0.75
    merged = StartDensity([(0.25, 2.0), (0.5, 1.0), (0.25, 2.0)])
    x = x_of_t(SPLIT_FILLED, 3.0, seam)
    assert math.isfinite(x) and x < 0.0
    assert x_of_t(SPLIT_FILLED, 3.0, seam, method="quadrature") == pytest.approx(x, rel=1e-8)
    assert x == pytest.approx(x_of_t(merged, 3.0, seam), rel=1e-12)


def test_split_filled_window_arc_skips_no_point():
    window = t_domains(SPLIT_FILLED, 3.0)[2]
    assert arctic_curve(SPLIT_FILLED, 3.0, window, n_samples=401).skipped == 0


@st.composite
def densities(draw):
    """A two- or three-piece density of slopes 1, 1.5, 2, 4 with at most one jump."""
    pieces = draw(st.integers(2, 3))
    widths = [draw(st.floats(0.1, 1.0)) for _ in range(pieces)]
    widths = [w / math.fsum(widths) for w in widths]
    slopes = [draw(st.sampled_from([1.0, 1.5, 2.0, 4.0])) for _ in range(pieces)]
    at = draw(st.integers(1, pieces - 1)) if draw(st.booleans()) else None
    jumps = [] if at is None else [(sum(widths[:at]), draw(st.floats(0.1, 2.0)))]
    return StartDensity(list(zip(widths, slopes)), jumps=jumps)


@st.composite
def ladder_cases(draw):
    """A density, a base in [1e-3, 1e3] without 1, and a t.

    t is log-uniform of either sign, or a pole qq**a at a piece end, where
    branches end or the density support lies.
    """
    d = draw(densities())
    qq = 10.0 ** (draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.01, 3.0)))
    if draw(st.booleans()):
        a = draw(st.sampled_from([el.a_lo for el in d.elements] + [d.alpha_top]))
        t = qq**a
    else:
        t = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-20.0, 20.0))
    return d, qq, t


@given(ladder_cases())
@settings(max_examples=300, deadline=None)
def test_x_of_t_follows_the_branch_ladder(case):
    d, qq, t = case
    holding = [dom for dom in t_domains(d, qq) if t in dom]
    assert len(holding) <= 1
    if not holding:
        with pytest.raises(InvalidArgument):
            x_of_t(d, qq, t)
        return
    assert np.sign(x_of_t(d, qq, t)) == holding[0].sign_of_x


@given(densities(), st.sampled_from([-1.0, 1.0]), st.floats(0.01, 20.0), st.floats(-12.0, -1.0))
@settings(max_examples=200, deadline=None)
def test_quadrature_route_matches_closed_form_on_every_branch(d, side, decades, offset):
    # t sits a relative distance r inside each finite end of every branch,
    # where a pole qq**a lies just outside the branch, and far along the
    # infinite legs.
    qq, r = 10.0 ** (side * decades), 10.0**offset
    for dom in t_domains(d, qq):
        ts = []
        if math.isfinite(dom.lo):
            ts += [dom.lo * (1.0 + r), dom.lo * 1e3]
        if math.isfinite(dom.hi):
            ts += [dom.hi * (1.0 - r), dom.hi * 1e-3]
        if math.isinf(dom.lo):
            ts += [-1e3, -1e-3]
        for t in (t for t in ts if t in dom):
            closed = x_of_t(d, qq, t)
            assert x_of_t(d, qq, t, method="quadrature") == pytest.approx(closed, rel=1e-10), t


def test_window_boundary_rejected():
    with pytest.raises(InvalidArgument):
        x_of_t(GAPPED, 3.0, 3.0)
    with pytest.raises(InvalidArgument):
        x_of_t(GAPPED, 3.0, 9.0)


def test_arctic_endpoints_uniform_base_three():
    # Right branch limits: X -> log 6 / log 3 as t -> inf, and (2, 0) at
    # the branch edge.
    bx, by = arctic_point(UNIFORM, 3.0, 1e8)
    assert bx == pytest.approx(math.log(6.0) / math.log(3.0), abs=1e-3)
    assert by == pytest.approx(1.0, abs=1e-3)
    bx, by = arctic_point(UNIFORM, 3.0, 9.0 * (1.0 + 1e-8))
    assert bx == pytest.approx(2.0, abs=1e-3)
    assert by == pytest.approx(0.0, abs=1e-3)
    assert by == pytest.approx(5.15e-4, rel=5e-3)


def test_arctic_endpoints_mirror_base_third():
    bx, by = arctic_point(UNIFORM, 1.0 / 3.0, -1e8)
    assert bx == pytest.approx(math.log(2.0 / 9.0) / math.log(1.0 / 3.0), abs=1e-3)
    assert by == pytest.approx(1.0, abs=1e-3)
    bx, by = arctic_point(UNIFORM, 1.0 / 3.0, (1.0 / 9.0) * (1.0 - 1e-8))
    assert bx == pytest.approx(2.0, abs=1e-3)
    assert by == pytest.approx(0.0, abs=1e-3)


def envelope_residual(d, qq, t, bx, by):
    x = x_of_t(d, qq, t)
    return abs(x * qq**by + (1.0 - x) / t * qq**bx - 1.0)


def test_envelope_residual_small_on_sampled_branches():
    cases = [
        (UNIFORM, 3.0),
        (UNIFORM, 1.0 / 3.0),
        (THIRDS, 1e-2),
        (THIRDS, 1e2),
    ]
    for d, qq in cases:
        for dom in t_domains(d, qq):
            curve = arctic_curve(d, qq, dom, n_samples=40)
            assert curve.skipped == 0
            assert len(curve) >= 30
            for t, bx, by in curve.points:
                assert envelope_residual(d, qq, t, bx, by) <= 1e-10


@pytest.mark.parametrize("qq", [1e-6, 1e-20, 1e6])
@pytest.mark.parametrize("branch", ["right", "left"])
def test_outer_branches_keep_every_point_at_extreme_bases(qq, branch):
    # Far along the infinite legs (t up to qq**-40) the product of two
    # (t - E) factors overflows; the point map never forms it.
    dom = next(dom for dom in t_domains(CORNERED, qq) if dom.branch == branch)
    curve = arctic_curve(CORNERED, qq, dom, n_samples=400)
    assert curve.skipped == 0
    assert len(curve) >= 400
    end = CORNERED.alpha_top if branch == "right" else 0.0
    for t, bx, by in curve.points:
        # Within 1e-5 (in log|t| / log qq) of the finite branch end the
        # rounded (X, Y) alone gives residuals up to 6e-10.
        if t < 0.0 or abs(math.log(t) / math.log(qq) - end) > 1e-5:
            assert envelope_residual(CORNERED, qq, t, bx, by) <= 1e-10


@pytest.mark.parametrize("qq", [3.0, 1.0 / 3.0])
@pytest.mark.parametrize("t", [0.0, 5e-324, 1e-300, -1e-300, -1e-20])
def test_arctic_point_raises_where_the_map_degenerates(qq, t):
    # t = 0: x = 1 and s = 0, so the envelope denominator vanishes; near
    # it x rounds to 1, and s + 1 - x keeps no digit.
    with pytest.raises(SingularPoint):
        arctic_point(UNIFORM, qq, t)


def test_arctic_curve_window_branch():
    doms = t_domains(FILLED, 1e-2)
    window_curve = arctic_curve(FILLED, 1e-2, doms[2], n_samples=60)
    assert len(window_curve) >= 40
    xs = [p[1] for p in window_curve.points]
    ys = [p[2] for p in window_curve.points]
    assert all(math.isfinite(v) for v in xs + ys)
    for t, bx, by in window_curve.points:
        # Slightly looser than the plain branches: the sample closest to a
        # window boundary sits at a conditioning extreme of the parameter
        # map and lands near 2e-10.
        assert envelope_residual(FILLED, 1e-2, t, bx, by) <= 1e-9


def test_arctic_curve_refuses_a_domain_of_another_ladder():
    # A right branch of base 0.5 lies where base 3 has its left branch; a
    # window of another profile is no arc of UNIFORM at all; a label is no
    # domain.
    right_at_half = t_domains(UNIFORM, 0.5)[0]
    window_elsewhere = t_domains(FILLED, 3.0)[2]
    assert window_elsewhere.window is not None
    for foreign in (right_at_half, window_elsewhere, "right"):
        with pytest.raises(InvalidArgument, match="is no branch of this density at base 3.0"):
            arctic_curve(UNIFORM, 3.0, foreign, n_samples=50)
    # The ladder's own domain, built anew, is accepted.
    assert len(arctic_curve(UNIFORM, 3.0, t_domains(UNIFORM, 3.0)[0], n_samples=50)) > 0


def test_arctic_curve_sample_count_contract():
    right = t_domains(UNIFORM, 3.0)[0]
    tiny = arctic_curve(UNIFORM, 3.0, right, n_samples=2)
    assert len(tiny) >= 2
    with pytest.raises(InvalidArgument):
        arctic_curve(UNIFORM, 3.0, right, n_samples=1)
    for tiny_line in (lambda: tangent_curve(UNIFORM, 3.0, 18.0, n_samples=1),
                      lambda: geodesic(3.0, 1.5, 0.5, n_samples=1)):
        with pytest.raises(InvalidArgument, match=r"^n_samples must lie in \[2, 1000000\], got 1$"):
            tiny_line()
    # A count is an integer, as task.samples is: no bool, no 2.5, no 7.0.
    for bad in (True, 2.5, 7.0, np.bool_(True)):
        for call in (lambda: arctic_curve(UNIFORM, 3.0, right, n_samples=bad),
                     lambda: tangent_curve(UNIFORM, 3.0, 18.0, n_samples=bad),
                     lambda: geodesic(3.0, 1.5, 0.5, n_samples=bad)):
            with pytest.raises(InvalidArgument, match="n_samples must be an integer"):
                call()
    line = tangent_curve(UNIFORM, 3.0, 18.0, n_samples=np.int64(7))
    assert np.array_equal(line.txy, tangent_curve(UNIFORM, 3.0, 18.0, n_samples=7).txy)


def test_arctic_curve_is_simple_for_uniform_density():
    for qq in (3.0, 1.0 / 3.0):
        for dom in t_domains(UNIFORM, qq):
            assert not arctic_curve(UNIFORM, qq, dom, n_samples=200).self_intersecting
    # Window arcs fold into 2-3 x-monotone runs, so the box-pruned scan
    # has candidate pairs to test there.
    for d in (FILLED, GAPPED):
        for qq in (1e-2, 1e3):
            window = t_domains(d, qq)[2]
            assert "window" in window.branch
            assert not arctic_curve(d, qq, window, n_samples=200).self_intersecting


def test_tangent_family_touches_envelope():
    d, qq = UNIFORM, 3.0
    for t in (12.0, 18.0, 40.0):
        line = tangent_curve(d, qq, t, n_samples=250)
        x = x_of_t(d, qq, t)
        for _, bx, by in line.points:
            assert abs(x * qq**by + (1.0 - x) / t * qq**bx - 1.0) <= 1e-9
        # The arctic point at t satisfies the same family equation ...
        bx, by = arctic_point(d, qq, t)
        assert envelope_residual(d, qq, t, bx, by) <= 1e-10
        # ... and nearby family members shift away only to second order.
        def family_at(s):
            xs = x_of_t(d, qq, s)
            return xs * qq**by + (1.0 - xs) / s * qq**bx - 1.0

        dt = 1e-3 * t
        r1 = family_at(t + dt)
        r2 = family_at(t + dt / 2.0)
        assert abs(r1) < 1e-4
        assert abs(r2) <= abs(r1) / 3.0


def test_tangent_line_at_t_zero_raises():
    # x(0) = 1 is the degenerate point, as for arctic_point and the exit
    # parameters: (1 - x(t)) / t has no value there.
    for qq in (3.0, 0.2):
        with pytest.raises(SingularPoint, match="x = 1, the degenerate point"):
            tangent_curve(UNIFORM, qq, 0.0)


def test_geodesic_endpoints_and_equation():
    qq, xi, z = 3.0, 1.7, 0.25
    curve = geodesic(qq, xi, z, n_samples=120)
    t0, x0, y0 = curve.points[0]
    t1, x1, y1 = curve.points[-1]
    assert math.isnan(t0)
    assert (x0, y0) == pytest.approx((0.0, 1.0 + z))
    assert (x1, y1) == pytest.approx((xi, 1.0))
    den_xi = 1.0 - qq**xi
    den_z = 1.0 - qq**z
    for _, bx, by in curve.points:
        lhs = (1.0 - qq**bx) / den_xi + (1.0 - qq ** (by - 1.0)) / den_z
        assert lhs == pytest.approx(1.0, abs=1e-12)


def test_geodesic_validation():
    with pytest.raises(InvalidArgument):
        geodesic(3.0, -1.0, 0.5)
    with pytest.raises(InvalidArgument):
        geodesic(3.0, 1.5, 0.0)
    for xi, z in ((math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf)):
        with pytest.raises(InvalidArgument, match="^(xi|z) must be finite"):
            geodesic(3.0, xi, z)
    with pytest.raises(InvalidArgument):
        geodesic(1.0, 1.5, 0.5)


FROZEN_EXITS = [
    # (density, qq, t, construction, xi, z)
    (UNIFORM, 3.0, 18.0, "right", 1.700001, 0.250318),
    (UNIFORM, 3.0, 150.0, "right", 1.637187, 0.021007),
    (UNIFORM, 3.0, -20.0, "left", 1.593526, 0.945369),
    (UNIFORM, 3.0, -100.0, "left", 1.622216, 0.134805),
    (UNIFORM, 1.0 / 3.0, 30.0, "left", 1.365642, 0.011473),
    (THIRDS, 1e-2, -3000.0, "right", 1.153440, 0.007250),
]


def test_exit_params_frozen_values():
    for d, qq, t, which, xi, z in FROZEN_EXITS:
        fn = exit_params_right if which == "right" else exit_params_left
        got = fn(d, qq, t)
        assert got.xi == pytest.approx(xi, abs=1e-5)
        assert got.z == pytest.approx(z, abs=1e-5)


def test_exit_params_reject_unreachable_tails():
    # On parts of the admissible t range the tail length comes out complex;
    # those parameters are rejected rather than silently projected.
    with pytest.raises(InvalidArgument):
        exit_params_left(UNIFORM, 3.0, 0.5)
    with pytest.raises(InvalidArgument):
        exit_params_right(THIRDS, 1e-2, 1e-6)
    # Off-branch t is rejected outright.
    with pytest.raises(InvalidArgument):
        exit_params_right(UNIFORM, 3.0, 0.5)
    with pytest.raises(InvalidArgument):
        exit_params_left(UNIFORM, 3.0, 18.0)


def test_exit_params_consistent_with_envelope():
    # The exit abscissa xi at t equals the arctic X after undoing the
    # tangent construction only at the touch point; at minimum it must lie
    # inside the profile span and move monotonically along the branch.
    xs = [exit_params_right(UNIFORM, 3.0, t).xi for t in (12.0, 20.0, 60.0, 200.0)]
    assert all(0.0 < v < 2.0 for v in xs)
    zs = [exit_params_right(UNIFORM, 3.0, t).z for t in (12.0, 20.0, 60.0, 200.0)]
    assert all(a > b for a, b in zip(zs, zs[1:]))


def _exit_reference(d, qq):
    """(which, t) -> (xi, z) of d at 420 digits, or None where either is not real.

    d's a's must be binary fractions, so that its doubles hold them
    exactly; 420 digits hold 120 past the cancellation in x - 1 at
    |t| = 1e-300.
    """
    elements = list(d.segment_elements())
    assert sum((Fraction(el.a_hi) - Fraction(el.a_lo)) / Fraction(el.p) for el in elements) == 1
    with mpmath.workdps(420):
        q = mpmath.mpf(qq)
        log_q, q_top = mpmath.log(q), q ** mpmath.mpf(d.alpha_top)
        parts = [(q ** mpmath.mpf(el.a_lo), q ** mpmath.mpf(el.a_hi), 1 / mpmath.mpf(el.p))
                 for el in elements]

    def reference(which, t):
        with mpmath.workdps(420):
            t = mpmath.mpf(t)
            log_x = -log_q + mpmath.fsum(inv_p * (mpmath.log(abs(t - e_hi)) - mpmath.log(abs(t - e_lo)))
                                         for e_lo, e_hi, inv_p in parts)
            x = mpmath.exp(log_x)
            q_xi = t * (q * x - 1) / (x - 1)
            if which == "right":
                q_z = (t - (1 - x)) / (t * q * x)
            else:
                q_z = t / (q * (t * x + q_top * (1 - x)))
            if not (q_xi > 0 and q_z > 0):
                return None
            return float(mpmath.log(q_xi) / log_q), float(mpmath.log(q_z) / log_q)

    return reference


def _assert_exit_params(d, qq, which, t, expected, rel):
    """exit_params_<which>(d, qq, t), held to expected to rel, or None where
    expected is None and it refuses."""
    fn = exit_params_right if which == "right" else exit_params_left
    if expected is None:
        with pytest.raises(InvalidArgument):
            fn(d, qq, t)
        return None
    got = fn(d, qq, t)
    assert got.xi == pytest.approx(expected[0], rel=rel, abs=0.0), (which, t)
    assert got.z == pytest.approx(expected[1], rel=rel, abs=0.0), (which, t)
    return got.xi, got.z


def _outer_branch_ts(qq):
    """t on both outer branches of UNIFORM: near the finite end, across 0, out to |t| = 1e15."""
    end = qq**2
    far = [1e2, 1e5, 1e8, 1e10, 1e12, 1e15]
    if qq > 1.0:  # right (qq**2, inf), left (-inf, 1)
        right = [end * (1.0 + s) for s in (1e-2, 1.0, 1e2)] + [t for t in far if t > end]
        left = [0.99, 0.5, 1e-3, -1e-3, -1.0] + [-t for t in far]
    else:  # right (-inf, qq**2), left (1, inf)
        right = [end * s for s in (0.99, 0.5) if end > 0.0] + [-1e-100, -1e-3, -1.0]
        right += [-t for t in far]
        left = [1.01, 2.0] + far
    return {"right": right, "left": left}


@pytest.mark.parametrize("qq", [3.0, 1 / 3, 1e-2, 1e3, 1e-20, 1e-200, 1e-300])
def test_exit_params_against_mpmath_on_uniform(qq):
    # As |t| grows qq x -> 1; (xi, z) keep their digits out to |t| = 1e15,
    # and raise exactly where the closed form has no real value.
    reference = _exit_reference(UNIFORM, qq)
    for which, ts in _outer_branch_ts(qq).items():
        for t in ts:
            _assert_exit_params(UNIFORM, qq, which, t, reference(which, t), 1e-12)


EXACT_BINARY = StartDensity([(0.25, 2.0), (0.5, 1.25), (0.25, 4.0)])


@pytest.mark.parametrize("qq", [1.1, 0.9, 3.0, 1 / 3, 1e-2, 1e2])
@pytest.mark.parametrize("d", [UNIFORM, EXACT_BINARY], ids=["uniform", "exact_binary"])
def test_exit_params_keep_their_digits_down_to_t_zero(d, qq):
    # As t -> 0, x -> 1 and ln x = ln(qq x) - ln qq would cancel; (xi, z)
    # keep their digits down to |t| = 1e-300 on the outer branch that
    # crosses 0, and raise exactly where the closed form has no real value.
    # The worst error is 1.1e-14; forming ln|(x - 1) / t| or w = (1 - x) / t
    # from logs there would leave 7.7e-13 in xi or 8.9e-13 in z.
    reference = _exit_reference(d, qq)
    checked = 0
    for t in (s * 10.0**-k for k in range(2, 301) for s in (1.0, -1.0)):
        branches = [dom.branch for dom in t_domains(d, qq) if t in dom and dom.window is None]
        if branches:
            _assert_exit_params(d, qq, branches[0], t, reference(branches[0], t), 1e-13)
            checked += 1
    assert checked >= 590


def _point_reference(d, qq, t):
    """The (X, Y) of the point map at t on an outer branch, at 420 digits (d's
    a's binary fractions, as for _exit_reference)."""
    with mpmath.workdps(420):
        q, t = mpmath.mpf(qq), mpmath.mpf(t)
        log_x, s = -mpmath.log(q), mpmath.mpf(0)
        for el in d.segment_elements():
            e_lo, e_hi = q ** mpmath.mpf(el.a_lo), q ** mpmath.mpf(el.a_hi)
            log_x += (mpmath.log(abs(t - e_hi)) - mpmath.log(abs(t - e_lo))) / el.p
            s += t * (e_hi - e_lo) / ((t - e_hi) * (t - e_lo)) / el.p
        x = mpmath.exp(log_x)
        den = s + 1 - x
        return (float(mpmath.log(t * s / den) / mpmath.log(q)),
                float(mpmath.log((x * s + 1 - x) / (x * den)) / mpmath.log(q)))


@pytest.mark.parametrize("qq", [1.1, 3.0])
def test_arctic_point_refuses_where_it_has_no_digits_next_to_t_zero(qq):
    # Next to t = 0, ln x = ln(qq x) - ln qq cancels in the point map: at 1.1
    # and t = -1e-8 it gave X = -7.5 where the point is (1.3464, 0.9983).
    # Nearer 0 than the sweep's stop, |t| = 1e-2 min(1, qq**alpha(1)), it
    # refuses; at and beyond the stop it holds mpmath.
    for t in [-0.0101] + [-(10.0**-k) for k in range(2, 15)]:
        try:
            got = arctic_point(EXACT_BINARY, qq, t)
        except SingularPoint:
            assert t != -0.0101
            continue
        want = _point_reference(EXACT_BINARY, qq, t)
        assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-9, t


@st.composite
def binary_profiles(draw):
    """(d, qq): 1-4 segments of widths k / 2**m and slopes 1 + j/8 in [1, 4],
    optional interior jumps of heights j/8, so that every a is a binary
    fraction; and a base 10**U(-3, 3) with |ln qq| >= 1e-3."""
    n = 2 ** draw(st.integers(2, 6))
    k = draw(st.integers(1, 4))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), min_size=k - 1, max_size=k - 1)))
    widths = [(hi - lo) / n for lo, hi in zip([0, *cuts], [*cuts, n])]
    slopes = [1.0 + draw(st.integers(0, 24)) / 8.0 for _ in widths]
    jumps = [(c / n, draw(st.integers(1, 16)) / 8.0) for c in cuts if draw(st.booleans())]
    exponent = draw(st.floats(-3.0, 3.0).filter(lambda e: abs(e) * math.log(10.0) >= 1e-3))
    return StartDensity(list(zip(widths, slopes)), jumps=jumps), 10.0**exponent


@given(binary_profiles(), st.sampled_from([-1.0, 1.0]))
@settings(max_examples=100, deadline=None)
def test_exit_params_across_the_near_zero_switch(case, sign):
    # ln x changes form where |t| passes half the smallest pole. Just inside
    # and just outside, on the outer branch that crosses 0, (xi, z) match
    # mpmath or both refuse, and their step across the switch is mpmath's.
    d, qq = case
    sc = _scaled(d, qq)
    half = 0.5 * min(1.0, qq**d.alpha_top)
    inside, outside = (sign * (1.0 + s * 2.0**-20) * half for s in (-1.0, 1.0))
    assert sc.near_zero(inside) and not sc.near_zero(outside)
    branch = sc.domain(inside).branch
    assert branch in ("right", "left") and outside in sc.domain(inside)
    reference = _exit_reference(d, qq)
    expected = [reference(branch, t) for t in (inside, outside)]
    got = [_assert_exit_params(d, qq, branch, t, e, 1e-10)
           for t, e in zip((inside, outside), expected)]
    if None not in expected:
        for i in (0, 1):
            step = (got[1][i] - got[0][i]) - (expected[1][i] - expected[0][i])
            assert abs(step) <= 1e-10, (branch, i)


def test_exit_params_name_the_missing_real_value():
    # At 1e-300 and t = -1e-100 the exit height 7/6 is real; the tail length is not.
    with pytest.raises(InvalidArgument, match=r"no real tail length at t=-1e-100 \(qq\^z <= 0\)"):
        exit_params_right(UNIFORM, 1e-300, np.float64(-1e-100))
    # Next to t = 0+ both are real: 400-digit mpmath gives these values.
    got = exit_params_right(UNIFORM, 0.8, 1e-300)
    assert got.xi == pytest.approx(1.527835265517185, rel=1e-12, abs=0.0)
    assert got.z == pytest.approx(0.4799517392530943, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("t", [-1e200, -1e300, -1e308])
def test_exit_height_refuses_where_its_logs_cancel(t):
    # xi ln qq = ln|t| + ln|qq x - 1| - ln|x - 1| sums terms near 500 to
    # about 1.5e-12 at base 1 + 1e-12, and at -1e300 and -1e308 ln(qq x) is
    # subnormal: the sum gave xi = 1.0089, 3.5098 and -1.0e8 where xi is
    # near 1.5. At base 1.5 the same t keep their digits.
    with pytest.raises(NumericalFailure, match=re.escape(f"exit height at t={t!r} cancels")):
        exit_params_left(UNIFORM, 1.0 + 1e-12, t)
    assert exit_params_left(UNIFORM, 1.5, t).xi == pytest.approx(1.5503397132131662, rel=1e-12, abs=0.0)
    # Next to t = 0 the sum is ln|qq x - 1| - ln|(x - 1) / t|, and at
    # t = -1e-300 ln x is subnormal.
    with pytest.raises(NumericalFailure, match="cancels"):
        exit_params_left(UNIFORM, 1.0 + 1e-12, -1e-300)


def _outer_ts(d, qq):
    """(branch, t) on the outer branches of d: |t| = 1e-6 .. 1e8 and next to the finite ends."""
    end = qq**d.alpha_top
    ts = [s * 10.0**k for k in range(-6, 9) for s in (1.0, -1.0)]
    ts += [end * 1.5, end * 1.01, end * 0.5, end * 0.99, 0.5, 0.99, 1.01, 2.0]
    for t in ts:
        branches = [dom.branch for dom in t_domains(d, qq) if t in dom and dom.window is None]
        if branches:
            yield branches[0], t


# A segment of width 2**-30 next to one of width 1 - 2**-30: its rise is
# tiny, but its factor of x(t) costs no more digits than a wide one's.
NARROW_BINARY = StartDensity([(2.0**-30, 3.0), (1 - 2.0**-30, 2.0)])


@pytest.mark.parametrize("d", [UNIFORM, EXACT_BINARY, NARROW_BINARY],
                         ids=["uniform", "exact_binary", "narrow_binary"])
def test_exit_params_next_to_base_one_hold_their_digits_or_refuse(d):
    # Within about 1e-5 of base 1 the rounded poles qq**a cost ln x and
    # ln(qq x) about eps sum(1/p) / |ln qq| of themselves before xi's own
    # cancellation, and values off by far more than 1e-8 came back without
    # a signal. Each call holds mpmath to 1e-8 or refuses; away from base 1
    # every call returns.
    reference = _exit_reference(d, 3.0)
    for which, t in _outer_ts(d, 3.0):
        _assert_exit_params(d, 3.0, which, t, reference(which, t), 1e-8)
    for k in range(3, 16):
        for qq in (1.0 + 10.0**-k, 1.0 - 10.0**-k):
            reference = _exit_reference(d, qq)
            for which, t in _outer_ts(d, qq):
                try:
                    _assert_exit_params(d, qq, which, t, reference(which, t), 1e-8)
                except NumericalFailure as failure:
                    assert k > 3 and "cancels in its logarithms" in str(failure), (qq, which, t)
    # It returned xi = 4.16e7 here, where xi is about 1.5.
    with pytest.raises(NumericalFailure, match=r"exit height at t=0\.25 cancels"):
        exit_params_left(UNIFORM, 1.0 + 1e-12, 0.25)


@pytest.mark.parametrize("qq", [3.0, 0.5, 1e-305])
def test_a_segment_whose_rise_rounds_to_zero_adds_no_factor(qq):
    # The middle segment's a_hi = 1 + 3e-17 rounds to its a_lo = 1, so its
    # factor of x(t) is 1 and the arcs and exit parameters are UNIFORM's.
    # At 1e-305 its pole qq**1 lies beyond the doubles, where forming
    # ln|E_hi - E_lo| = ln 0 raised for every evaluator.
    d = StartDensity([(0.5, 2.0), (1e-17, 3.0), (0.5, 2.0)])
    domains = t_domains(d, qq)
    assert [(dom.lo, dom.hi) for dom in domains] == [(dom.lo, dom.hi) for dom in t_domains(UNIFORM, qq)]
    for dom, uniform in zip(domains, t_domains(UNIFORM, qq)):
        arc = arctic_curve(d, qq, dom, n_samples=50)
        expected = arctic_curve(UNIFORM, qq, uniform, n_samples=50)
        np.testing.assert_allclose(arc.txy, expected.txy, rtol=1e-9, atol=1e-9)
    for which, t in _outer_ts(d, qq):
        fn = exit_params_right if which == "right" else exit_params_left
        try:
            expected = fn(UNIFORM, qq, t)
        except InvalidArgument:
            continue
        got = fn(d, qq, t)
        assert (got.xi, got.z) == pytest.approx((expected.xi, expected.z), rel=1e-9), (which, t)


HEX_LIKE = StartDensity([(1 / 3, 1.0), (2 / 3, 1.0)], jumps=[(1 / 3, 1.0)])
# One input for each refusal of the point map and the exit parameters that
# no other test reaches. At t = 0, x = 1; at base 1e-300 every pole but 1
# lies beyond the doubles and meets t = 0 in _log_pole's far-pole case.
# One ulp from base 1, ln(qq x) rounds to 0 far out on the infinite leg, so
# qq**xi has no sign. In HEX_LIKE's filled window at 1e60, s + 1 - x keeps
# no digit.
CURVE_REFUSALS = {
    "exit_params_right_t_zero": (lambda: exit_params_right(UNIFORM, 1 / 3, 0.0),
                                 InvalidArgument, "x = 1, the degenerate point"),
    "exit_params_left_t_zero": (lambda: exit_params_left(UNIFORM, 3.0, 0.0),
                                InvalidArgument, "x = 1, the degenerate point"),
    "exit_params_right_t_zero_far_poles": (lambda: exit_params_right(UNIFORM, 1e-300, 0.0),
                                           InvalidArgument, "x = 1, the degenerate point"),
    "exit_params_left_no_exit_height": (lambda: exit_params_left(UNIFORM, math.nextafter(1.0, 2.0), -1e308),
                                        InvalidArgument, r"no real exit height at t=-1e\+308"),
    "exit_params_right_no_exit_height": (lambda: exit_params_right(UNIFORM, math.nextafter(1.0, 0.0), -1e308),
                                         InvalidArgument, r"no real exit height at t=-1e\+308"),
    "arctic_point_singular": (lambda: arctic_point(HEX_LIKE, 1e60, 2.0),
                              SingularPoint, r"^point map singular or undefined at t=2.0$"),
}


@pytest.mark.parametrize("call, error, message", CURVE_REFUSALS.values(), ids=CURVE_REFUSALS.keys())
def test_degenerate_points_are_refused(call, error, message):
    with pytest.raises(error, match=message):
        call()


# 1 +- 10**-k for k = 1 .. 12, then bases far from 1.
_SWEEP_BASES = [1.0 + s * 10.0**-k for s in (1.0, -1.0) for k in range(1, 13)]
_SWEEP_BASES += [1e-2, 1e2, 1e-6, 1e6, 3.0]


@pytest.mark.parametrize("d", [UNIFORM, CORNERED, FILLED, GAPPED, HEX_LIKE],
                         ids=["uniform", "cornered", "filled", "gapped", "hex_like"])
def test_every_swept_t_lies_on_its_branch(d):
    # Near base 1 the ladder toward a branch end steps inside the band where
    # x(t) has no digits; those t are skipped, never written.
    for qq in _SWEEP_BASES:
        for dom in t_domains(d, qq):
            for t in arctic_curve(d, qq, dom, n_samples=24).txy[:, 0].tolist():
                assert np.sign(x_of_t(d, qq, t)) == dom.sign_of_x, (qq, dom.branch, t)


@st.composite
def reflected_profiles(draw):
    """(d, d*, qq): 1-4 segments of slopes in [1, 4] with optional interior
    jumps, its reflection d* (segments reversed, a jump at u moved to
    1 - u, so alpha*(u) = alpha(1) - alpha(1 - u)), and a base 10**U(-6, 6)
    with |ln qq| >= 1e-3."""
    k = draw(st.integers(1, 4))
    widths = [draw(st.floats(0.1, 1.0)) for _ in range(k)]
    widths = [w / math.fsum(widths) for w in widths]
    slopes = [draw(st.one_of(st.just(1.0), st.floats(1.0, 4.0))) for _ in range(k)]
    cuts = [math.fsum(widths[:i]) for i in range(1, k)]
    jumps = [(u, draw(st.floats(0.1, 2.0))) for u in cuts if draw(st.booleans())]
    exponent = draw(st.floats(-6.0, 6.0).filter(lambda e: abs(e) * math.log(10.0) >= 1e-3))
    d = StartDensity(list(zip(widths, slopes)), jumps=jumps)
    mirror = StartDensity(list(zip(widths[::-1], slopes[::-1])),
                          jumps=[(1.0 - u, h) for u, h in jumps])
    return d, mirror, 10.0**exponent


def _outcome(fn, *args):
    """fn's value, or the first words of its refusal."""
    try:
        return fn(*args)
    except (InvalidArgument, SingularPoint) as exc:
        return str(exc).split(" at ")[0]


@given(reflected_profiles(), st.floats(0.01, 0.99), st.floats(0.01, 3.0), st.floats(0.0, 3.0))
@settings(max_examples=200, deadline=None)
def test_left_construction_is_the_right_one_on_the_reflected_model(case, frac, step, decades):
    # arctic_point(d, qq, t) = R(arctic_point(d*, 1/qq, t qq**(-top))) with
    # R(X, Y) = (top + Y - X, Y), and the left exit parameters at t are
    # (top + 1 - xi', z') of the right ones there. Away from the branch
    # ends and from t = 0 (|t| >= min(1, qq**top)) the two sides agreed to
    # 2.4e-10 in (X, Y) and 1.8e-11 in (xi, z) over 18 000 random points;
    # nearer t = 0 the point map loses digits on both sides (8.9e-7 at
    # |t| = 0.01 min(1, qq**top)).
    d, mirror, qq = case
    top, windows = d.alpha_top, len(d.windows)
    smallest = min(1.0, qq**top)
    mirrored = {"right": "left", "left": "right"}
    for dom in t_domains(d, qq):
        if dom.window is not None:
            index = int(dom.branch.rpartition("_")[2])
            mirrored[dom.branch] = f"{dom.window.kind}_window_{windows + 1 - index}"
            ts = [qq ** (dom.taus[0] + frac * (dom.taus[1] - dom.taus[0]))]
        else:
            t = qq ** (top + step if dom.branch == "right" else -step)
            ts = [t] if t >= smallest else []
            if dom.lo == -math.inf:
                ts.append(-smallest * 10.0**decades)
        for t in (t for t in ts if t in dom):
            t_mirror = t * qq**-top
            assert [m.branch for m in t_domains(mirror, 1 / qq) if t_mirror in m] == [mirrored[dom.branch]]
            got = _outcome(arctic_point, d, qq, t)
            via = _outcome(arctic_point, mirror, 1 / qq, t_mirror)
            if isinstance(got, str) or isinstance(via, str):
                assert got == via, (dom.branch, t)
            else:
                assert got == pytest.approx((top + via[1] - via[0], via[1]), rel=0.0, abs=1e-8)
            if dom.branch != "left":
                continue
            got = _outcome(exit_params_left, d, qq, t)
            via = _outcome(exit_params_right, mirror, 1 / qq, t_mirror)
            if isinstance(got, str) or isinstance(via, str):
                assert got == via, t
            else:
                assert got.xi == pytest.approx(top + 1.0 - via.xi, rel=1e-9, abs=1e-9)
                assert got.z == pytest.approx(via.z, rel=1e-9, abs=1e-9)


_STATE_PROFILES = {
    "uniform": ([(1.0, 2.0)], []),
    "filled_mid": ([(1 / 3, 2.0), (1 / 3, 1.0), (1 / 3, 2.0)], []),
    "hex_like": ([(1 / 3, 1.0), (2 / 3, 1.0)], [(1 / 3, 1.0)]),
}
_STATE_BASES = (3.0, 1 / 3, 1e-2, 1e3, 1e-20)


def _bits(value):
    """value with every float as its hex form and every array as its bytes."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return tuple(map(_bits, value))
    return repr(value)


def _outcome_bits(fn, *args, **kwargs):
    """fn's value bit for bit, or its refusal."""
    try:
        return _bits(fn(*args, **kwargs))
    except (InvalidArgument, NumericalFailure, SingularPoint) as exc:
        return type(exc).__name__, str(exc)


def _branch_ts(dom, qq):
    """t inside dom, of both signs where it reaches past 0."""
    cap = 600.0 / abs(math.log(qq))
    lo, hi = max(dom.taus[0], -cap), min(dom.taus[1], cap)
    ts = [qq ** (lo + f * (hi - lo)) for f in (0.2, 0.5, 0.8)]
    if dom.lo == -math.inf:
        ts += [-0.5, -20.0]
    return ts


def _scaled_results(d, qq):
    """Every evaluator that reads the scaled state of (d, qq), bit for bit."""
    doms = t_domains(d, qq)
    got = [_bits([(dom, dom.lo, dom.hi, dom.taus, dom.log_q) for dom in doms])]
    for dom in doms:
        got.append(_outcome_bits(lambda: arctic_curve(d, qq, dom, n_samples=24).txy))
        for t in _branch_ts(dom, qq):
            got += [_outcome_bits(x_of_t, d, qq, t),
                    _outcome_bits(x_of_t, d, qq, t, method="quadrature"),
                    _outcome_bits(arctic_point, d, qq, t),
                    _outcome_bits(lambda: tangent_curve(d, qq, t, n_samples=9).txy),
                    _outcome_bits(lambda: list(vars(exit_params_right(d, qq, t)).values())),
                    _outcome_bits(lambda: list(vars(exit_params_left(d, qq, t)).values())),
                    _outcome_bits(saddle_residual_t, d, qq, t, 0.75)]
    return got


@pytest.mark.parametrize("qq", _STATE_BASES)
@pytest.mark.parametrize("profile", _STATE_PROFILES.values(), ids=_STATE_PROFILES.keys())
def test_stored_scaled_state_leaves_every_result_as_it_was(profile, qq):
    # A density keeps the scaled state of its last base. The results at
    # (d, qq) are the same bits whether that store is empty, warm, filled at
    # another base, or the store filled is another density's.
    def density():
        return StartDensity(*profile)

    d = density()
    assert d._scaled is None
    empty = _scaled_results(d, qq)
    assert _scaled_results(d, qq) == empty  # warm
    for filled in (d, density()):  # filled at another base
        t_domains(filled, 7.0)
        assert _scaled_results(filled, qq) == empty
    for other in (FILLED, HEX_LIKE):
        t_domains(other, qq)
    fresh = density()
    assert fresh._scaled is None and _scaled_results(fresh, qq) == empty  # another density's


def test_t_domains_hands_out_a_copy_of_the_stored_ladder():
    d = StartDensity([(1 / 3, 2.0), (1 / 3, 1.0), (1 / 3, 2.0)])
    doms = t_domains(d, 3.0)
    want = list(doms)
    doms.reverse()
    doms.append(doms[0])
    doms[0] = None
    assert t_domains(d, 3.0) == want
    assert len(arctic_curve(d, 3.0, want[2], n_samples=24)) > 0


def test_a_density_rebuilds_its_scaled_state_at_a_new_base():
    d = StartDensity([(1.0, 2.0)])
    at_3 = _scaled(d, 3.0)
    assert _scaled(d, 3) is at_3 and d._scaled is at_3
    at_third = _scaled(d, 1 / 3)
    assert at_third is not at_3 and at_third.qq == 1 / 3 and d._scaled is at_third
    again = _scaled(d, 3.0)
    assert again is not at_3 and again.qq == 3.0
    assert [dom.branch for dom in again.domains] == ["right", "left"]
    assert again.domains == at_3.domains


def test_one_scaled_state_serves_a_tangent_construction(monkeypatch):
    # Traffic, not time: 100 mixed calls at one (density, base) build the
    # scaled state once.
    builds = []
    build = _Scaled.__init__

    def counted(self, d, qq):
        builds.append(qq)
        build(self, d, qq)

    monkeypatch.setattr(_Scaled, "__init__", counted)
    d = StartDensity([(1.0, 2.0)])
    calls = [
        lambda t: x_of_t(d, 3.0, t),
        lambda t: x_of_t(d, 3, t, method="quadrature"),
        lambda t: exit_params_right(d, 3.0, t),
        lambda t: exit_params_left(d, 3.0, -t),
        lambda t: saddle_residual_t(d, np.float64(3.0), t, 1.5),
        lambda t: arctic_point(d, 3.0, t),
        lambda t: t_domains(d, 3.0),
    ]
    for i in range(100):
        calls[i % len(calls)](9.0 * (1.0 + (i + 1) / 7.0))
    assert builds == [3.0]


@pytest.mark.parametrize("qq", [3.0, 1.5])
def test_outer_arcs_reach_the_top_far_past_alpha_top(qq):
    # Slope 50: alpha(1) = 50 lies past tau = 40. Each outer leg ends at
    # least 20 tau-units past the pole at alpha(1), so both arcs rise to
    # the top of the strip.
    d = StartDensity([(1.0, 50.0)])
    right, left = t_domains(d, qq)[:2]
    for dom in (right, left):
        curve = arctic_curve(d, qq, dom)
        assert 1.0 - curve.txy[:, 2].max() <= 1e-6


def test_top_contacts_of_reflected_bases_sum_to_alpha_top_plus_one():
    # The reflection sends X to alpha(1) + 1 - X and qq to 1/qq, so the
    # right arcs' highest points at 3 and 1/3 sum to 51.
    d = StartDensity([(1.0, 50.0)])

    def top_contact(qq):
        txy = arctic_curve(d, qq, t_domains(d, qq)[0]).txy
        return txy[txy[:, 2].argmax(), 1]

    assert top_contact(3.0) + top_contact(1 / 3) == pytest.approx(d.alpha_top + 1.0, abs=1e-4)


def test_a_built_scaled_state_forms_no_pole(monkeypatch):
    # Each pole of (d, qq) is formed once, when its _Scaled is built; the
    # evaluators read the stored poles.
    from qpaths import curves

    formed = []
    pole = curves._pole

    def counted(*args):
        formed.append(args)
        return pole(*args)

    monkeypatch.setattr(curves, "_pole", counted)
    # t0 lies on the right branch and -t0 on the left. At 1e-300 the
    # density's poles leave the doubles, and the right exit is refused.
    for d, qq, t0 in ((FILLED, 3.0, 10.0), (CORNERED, 1 / 3, -10.0), (CORNERED, 1e-300, -10.0)):
        sc = _scaled(d, qq)
        assert formed and _scaled(d, qq) is sc
        formed.clear()
        for i in range(200):
            t = t0 * (1.0 + i / 7.0)
            x_of_t(d, qq, t)
            x_of_t(d, qq, t, method="quadrature")
            arctic_point(d, qq, t)
            tangent_curve(d, qq, t, n_samples=9)
            exit_params_left(d, qq, -t)
            try:
                exit_params_right(d, qq, t)
            except InvalidArgument:
                assert qq == 1e-300
        assert formed == []
