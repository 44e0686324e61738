"""Rescaled free-energy actions of the scaling regime.

The one-point function of the exit position concentrates, for large
system size, around the minimizer of an action.  Its bulk part

    S_bulk(t, xi) = (xi - 1/2) ln qq
                    + int_0^1 ln((t qq**(u - xi) - 1)/(t - qq**alpha(u))) du
                  = int_0^1 ln((t - qq**(xi - u))/(t - qq**alpha(u))) du

carries the interaction with the start density, while the free parts

    S_free(xi, z)      = int_0^xi ln((qq**(u+z) - 1)/(qq**u - 1)) du
    S_free_dual(xi, z) = z (xi + z/2) ln qq
                         + int_0^(alpha(1)+1-xi) ln(same integrand) du

weigh the free tail of the exit path in the right and left tangent
constructions.  Both are closed forms in one dilogarithm kernel, in plain
math: _li2(sigma, d) = Li2(sigma e**(-d)) for d >= 0, sigma = +-1, and its
divided difference _mean_log1m, the mean of ln(1 - sigma e**(-d)) over an
interval of d (the derivative of Li2(sigma e**(-d)) in d).

- Bulk: on a linear segment of the density each factor t - qq**b has an
  exponent e = b ln qq linear in u, so it integrates as a mean of
  ln|t - e**e| over an interval of e.  With L = ln|t| and sigma the sign
  of t, that is L + ln(1 - sigma e**(e - L)) below L and
  e + ln(1 - sigma e**(L - e)) above it: exact means of the polynomial
  parts plus _mean_log1m.  At t < 0 an interval that holds L splits
  there; at t > 0 a factor that crosses L changes sign and the action is
  refused.  qq**b is never formed, so bases such as 1e-300 need no pole
  kernel.
- Free: with l = |ln qq| and C(d) = zeta(2) - Li2(e**(-d)), the integral
  over [0, span] is z span max(ln qq, 0) + (C(l z) + C(l span)
  - C(l (z + span))) / l, taken as a difference of two means (see
  _free_integral).

Accuracy: _li2 is good to a few units of 1e-16 relative.  _mean_log1m
takes a difference of two _li2 values on an interval at least _LONG long
(a few units of 1e-16 absolute) and divides the series through term by
term on a shorter one, so bases next to 1 keep their digits.  The saddle
residuals are closed-form first derivatives, for checking the
stationarity of a tangency point without numerical differentiation;
their boundary term ln((t - qq**(xi - 1)) / (t - qq**xi)) is the
pole-pair quotient of :mod:`qpaths.curves`, whose log1p keeps its
digits at large |t|.
"""

from __future__ import annotations

import math

from .curves import _LN2, _log_quotient, _log_shift, _pole_pair, _scaled
from .errors import InvalidArgument, float_range, float_value, real_value
from .profile import StartDensity, _check_base

_ZETA2 = 1.6449340668482264  # pi**2 / 6 = Li2(1)
# B_2m / (2m + 1)! for m = 1 .. 9: Li2(x) = y - y**2/4 + sum_m of these
# times y**(2m + 1), with y = -ln(1 - x).  For |y| <= ln 2 the first term
# left out is below 1e-18 of the sum.
_BERNOULLI = (0.027777777777777776, -0.0002777777777777778, 4.72411186696901e-06,
              -9.185773074661964e-08, 1.8978869988971e-09, -4.0647616451442256e-11,
              8.921691020456452e-13, -1.9939295860721074e-14, 4.518980029619918e-16)
# Interval length in d from which _mean_log1m takes the difference of two
# _li2 values: its rounding, a few units of 1e-16 over the length, stays
# below 1e-15 absolute.
_LONG = 1.0


def _series(y: float) -> float:
    """Li2(x) from its Bernoulli series in y = -ln(1 - x), for |y| <= ln 2."""
    y2 = y * y
    acc = 0.0
    for c in reversed(_BERNOULLI):
        acc = acc * y2 + c
    return y + y2 * (-0.25 + y * acc)


def _series_slope(a: float, b: float) -> float:
    """(_series(b) - _series(a)) / (b - a) for a, b of one sign, term by term.

    (b**k - a**k) / (b - a) = h_k = b h_(k-1) + a**(k-1) sums terms of one
    sign, so nothing cancels, also at a == b.
    """
    power, h = a, a + b
    total = 1.0 - 0.25 * h
    for c in _BERNOULLI:
        power *= a
        h = b * h + power
        total += c * h
        power *= a
        h = b * h + power
    return total


def _li2(sigma: float, d: float) -> float:
    """Li2(sigma e**(-d)) for d >= 0 and sigma = +-1.

    The Bernoulli series for x = sigma e**(-d) <= 1/2 (down to x = -1,
    where y = -ln 2); above 1/2 the reflection Li2(x) = zeta(2) - ln x
    ln(1 - x) - Li2(1 - x), with ln x = -d and 1 - x = -expm1(-d), whose
    own y is d.
    """
    if sigma > 0.0 and d < _LN2:
        if not d:
            return _ZETA2
        return _ZETA2 + d * math.log(-math.expm1(-d)) - _series(d)
    return _series(-math.log1p(-sigma * math.exp(-d)))


def _xlog1p(x: float, y: float) -> float:
    """x ln(1 + y/x) for x, y > 0, also where y/x overflows."""
    r = y / x
    return x * (math.log1p(r) if r < math.inf else math.log(y) - math.log(x))


def _mean_near(d0: float, width: float) -> float:
    """_mean_log1m(1, d0, width) for d0 + width <= ln 2, by the reflection.

    There Li2(e**(-d)) = zeta(2) + d w(d) - _series(d) with
    w(d) = ln(-expm1(-d)), and d1 w(d1) - d0 w(d0) = width w(d1)
    + d0 ln(1 + e**(-d0) (1 - e**(-width)) / (1 - e**(-d0))).
    """
    d1 = d0 + width
    value = math.log(-math.expm1(-d1)) - _series_slope(d0, d1)
    if d0 > 0.0:
        lo = -math.expm1(-d0)
        value += d0 / lo * _xlog1p(lo, math.exp(-d0) * -math.expm1(-width)) / width
    return value


def _mean_far(sigma: float, d0: float, width: float) -> float:
    """_mean_log1m(sigma, d0, width) where sigma e**(-d0) <= 1/2, by the series.

    y1 - y0 = ln((1 - x0) / (1 - x1)) is a log1p of x1 - x0 = x0 expm1(-width).
    """
    x0 = sigma * math.exp(-d0)
    step = x0 * math.expm1(-width)
    x1 = x0 + step
    slope = _series_slope(-math.log1p(-x0), -math.log1p(-x1))
    return math.log1p(step / (1.0 - x1)) / width * slope


def _mean_log1m(sigma: float, d0: float, width: float) -> float:
    """Mean of ln(1 - sigma e**(-d)) over d in [d0, d0 + width], for d0 >= 0,
    width > 0 and sigma = +-1: (Li2(sigma e**(-d1)) - Li2(sigma e**(-d0))) / width.

    An interval at least _LONG long takes that difference; a shorter one
    divides it through term by term (_mean_near, _mean_far), split at
    d = ln 2 where sigma = 1 and it holds ln 2.
    """
    if width >= _LONG:
        return (_li2(sigma, d0 + width) - _li2(sigma, d0)) / width
    if sigma < 0.0 or d0 >= _LN2:
        return _mean_far(sigma, d0, width)
    near = _LN2 - d0
    if width <= near:
        return _mean_near(d0, width)
    far = width - near
    return (near * _mean_near(d0, near) + far * _mean_far(1.0, _LN2, far)) / width


def _mean_log_gap(sigma: float, lo: float, width: float) -> tuple[float, bool | None]:
    """Mean of ln|t - e**e| - ln|t| over e - ln|t| in [lo, lo + width], with
    sigma the sign of t; and whether t - e**e < 0 there, None if the
    interval holds e = ln|t|, where t - e**e changes sign unless t < 0.
    """
    hi = lo + width
    if hi <= 0.0:
        return _mean_log1m(sigma, -hi, width), False
    if lo >= 0.0:
        return lo + 0.5 * width + _mean_log1m(sigma, lo, width), True
    below = -lo * _mean_log1m(sigma, 0.0, -lo)
    return (0.5 * hi * hi + below + hi * _mean_log1m(sigma, 0.0, hi)) / width, None


@float_range
def action_bulk(d: StartDensity, qq: float, t: float, xi: float) -> float:
    """Bulk action at tangency parameter t and exit height xi.

    Defined for t on the outer branches, where the integrand's log
    argument keeps one sign across u in [0, 1].  One linear segment at a
    time (jumps have no u extent), the factors t - qq**(xi - u) and
    t - qq**alpha(u) integrate in closed form (see _mean_log_gap); at
    t > 0 a segment on which they differ in sign, or one changes sign, is
    refused.
    """
    qq = _check_base(qq)
    t, xi = real_value(t, "t"), real_value(xi, "xi")
    if t == 0.0:
        raise InvalidArgument("bulk action undefined at t = 0")
    log_q = math.log(qq)
    ell = abs(log_q)
    log_t = math.log(abs(t))
    sigma = math.copysign(1.0, t)
    val = 0.0
    for el in d.segment_elements():
        width = el.u_hi - el.u_lo
        # The lower end of each factor's exponent interval, from ln|t|.
        if log_q > 0.0:
            num_lo, den_lo = (xi - el.u_hi) * log_q, el.a_lo * log_q
        else:
            num_lo, den_lo = (xi - el.u_lo) * log_q, el.a_hi * log_q
        num, num_side = _mean_log_gap(sigma, num_lo - log_t, width * ell)
        den, den_side = _mean_log_gap(sigma, den_lo - log_t, el.p * width * ell)
        if sigma > 0.0 and (num_side is None or num_side != den_side):
            raise InvalidArgument(f"bulk action: log argument not positive at t={t!r}")
        val += width * (num - den)
    return float_value(val, "bulk action")


def _log_ratio(t: float, xi: float, qq: float, log_q: float, what: str) -> float:
    """ln((t - qq**(xi - 1)) / (t - qq**xi)) from the pole-pair quotient of
    curves.  Raises InvalidArgument where it is not positive and finite."""
    value, positive = _log_quotient(t, *_pole_pair(xi, xi - 1.0, qq, log_q))
    if not positive or not math.isfinite(value):
        raise InvalidArgument(f"{what}: log argument not positive at t={t!r}")
    return value


def _check_right(xi, z) -> tuple[float, float]:
    """(xi, z) of the right construction as floats, checked: both above 0."""
    xi, z = real_value(xi, "xi"), real_value(z, "z")
    if xi <= 0.0 or z <= 0.0:
        raise InvalidArgument(f"need xi > 0 and z > 0, got xi={xi}, z={z}")
    return xi, z


def _dual_span(d: StartDensity, xi, z) -> tuple[float, float, float]:
    """(xi, z, alpha(1) + 1 - xi) of the left construction as floats,
    checked: z and the dual height span above 0."""
    xi, z = real_value(xi, "xi"), real_value(z, "z")
    if z <= 0.0:
        raise InvalidArgument(f"need z > 0, got z={z}")
    span = d.alpha_top + 1.0 - xi
    if span <= 0.0:
        raise InvalidArgument(
            f"need xi < alpha(1) + 1 = {d.alpha_top + 1.0}, got xi={xi}"
        )
    return xi, z, span


def _free_integral(log_q: float, z: float, span: float) -> float:
    """int_0^span ln(expm1((u+z) log_q) / expm1(u log_q)) du, for z, span > 0.

    With l = |log_q| the integrand is z max(log_q, 0) + D(u), where
    D(u) = ln((1 - e**(-(u+z) l)) / (1 - e**(-u l))) >= 0, and
    int_0^span D = (C(l z) + C(l span) - C(l (z + span))) / l with
    C(d) = -int_0^d ln(1 - e**(-s)) ds.  With a <= b the two of z, span,
    C(l a) + C(l b) - C(l (a + b)) = l a (M(l b) - M(0)), M(s) the mean
    of ln(1 - e**(-d)) over [s, s + l a]: a tail of 1e-300 beside a span of
    300 stays one short mean, not a difference of two C values near
    zeta(2).
    """
    ell = abs(log_q)
    short, long = sorted((z, span))
    width = short * ell
    means = _mean_log1m(1.0, long * ell, width) - _mean_log1m(1.0, 0.0, width)
    return z * span * max(log_q, 0.0) + short * means


@float_range
def action_free(qq: float, xi: float, z: float) -> float:
    """Free-tail action of the right construction.

    The integrand's log singularity at u = 0 is integrated in closed
    form; see _free_integral.
    """
    qq = _check_base(qq)
    xi, z = _check_right(xi, z)
    return float_value(_free_integral(math.log(qq), z, xi), "free action")


@float_range
def action_free_dual(d: StartDensity, qq: float, xi: float, z: float) -> float:
    """Free-tail action of the left (dual) construction.

    Integrates over the dual height span alpha(1) + 1 - xi and adds the
    explicit area exchange term z (xi + z/2) ln qq.
    """
    qq = _check_base(qq)
    xi, z, span = _dual_span(d, xi, z)
    log_q = math.log(qq)
    return float_value(z * (xi + z / 2.0) * log_q + _free_integral(log_q, z, span),
                       "dual free action")


@float_range
def saddle_residual_t(d: StartDensity, qq: float, t: float, xi: float) -> float:
    """Closed-form partial derivative of the bulk action in t.

    Vanishes when xi is the exit height attached to the tangency at t.
    Defined, like the bulk action, for t != 0 on the outer branches, found
    by the branch lookup of x(t).  The derivative is
    (ln((t - qq**(xi - 1)) / (t - qq**xi)) + ln(qq x(t))) / (t ln qq):
    the boundary term is the xi residuals' integral term, and
    int_0^1 du / (t - qq**alpha(u)) = -ln x(t) / (t ln qq).
    """
    t, xi = real_value(t, "t"), real_value(xi, "xi")
    sc = _scaled(d, qq)
    if t == 0.0 or sc.domain(t).window is not None:
        raise InvalidArgument(f"t={t!r} lies on no outer branch")
    boundary = _log_ratio(t, xi, sc.qq, sc.log_q, "t residual")
    return (boundary + sc.log_x(t)[1]) / (t * sc.log_q)


@float_range
def saddle_residual_xi_right(
    d: StartDensity, qq: float, t: float, xi: float, z: float
) -> float:
    """Closed-form derivative in xi of bulk plus free action (right)."""
    qq = _check_base(qq)
    t = real_value(t, "t")
    xi, z = _check_right(xi, z)
    log_q = math.log(qq)
    # ln(expm1((xi+z) ln qq) / expm1(xi ln qq)) - ln((t - qq**(xi-1)) / (t - qq**xi));
    # both expm1 share a sign, and ln qq cancels between the two terms.
    own = _log_shift((xi + z) * log_q, True) - _log_shift(xi * log_q, True)
    return own - _log_ratio(t, xi, qq, log_q, "xi residual")


@float_range
def saddle_residual_xi_left(
    d: StartDensity, qq: float, t: float, xi: float, z: float
) -> float:
    """Closed-form derivative in xi of bulk plus dual free action (left)."""
    qq = _check_base(qq)
    t = real_value(t, "t")
    xi, z, span = _dual_span(d, xi, z)
    log_q = math.log(qq)
    # ln(qq**z expm1(span ln qq) / expm1((span+z) ln qq)) - ln((t - qq**(xi-1)) / (t - qq**xi)).
    own = z * log_q + _log_shift(span * log_q, True) - _log_shift((span + z) * log_q, True)
    return own - _log_ratio(t, xi, qq, log_q, "xi residual")
