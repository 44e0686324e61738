"""Arctic curves of the scaled path model.

Everything here lives in the scaling regime: a start density ``d``
(see :mod:`qpaths.profile`) together with a base ``qq > 0`` (the limit
of ``q**n``) determines the rescaled free energy, and the arctic curve
is traced as the envelope of the tangent-line family

    x(t) * qq**Y + ((1 - x(t)) / t) * qq**X = 1,

where ``t`` parametrizes admissible tangency points and

    x(t) = qq**(-t * integral_0^1 du / (t - qq**alpha(u)))

has a closed product form for piecewise-linear densities.  With
s = t x'(t) / x(t), the map from ``t`` to the tangency point is

    qq**X = t s / (s + 1 - x),    qq**Y = (x s + 1 - x) / (x (s + 1 - x)).

Each maximal admissible ``t`` interval (branch) yields one arc: the
right and left outer arcs plus one arc per density window, where the
paths freeze into gap or filled phases.  _pole forms a pole as (e, E) =
(a ln qq, qq**a), E = 0 or inf once |e| > _LOG_RANGE, and every factor
t - E meets it in one kernel, _log_pole: ln|t - E| = e + ln|sigma e**y - 1|
with y = ln|t| - e where E left the doubles, so bases such as 1e-300 keep
every branch that holds a double t.  The point map runs on numpy arrays
of t.  At one float t, _log_quotient gives ln((t - E_hi) / (t - E_lo)) of
a pole pair (_pole_pair): log1p of the pole ratio as |t| grows, the pole
logs next to a pole.  It gives each segment's term of ln(qq x) in
_Scaled.log_x, which the exit parameters read, and of ln|x| in
_Scaled.log_abs_x, which x_of_t reads, and the boundary term of the
saddle residuals of :mod:`qpaths.actions`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Optional

from .errors import (InvalidArgument, NumericalFailure, SingularPoint, float_range, float_value,
                     integer_value, real_value)
from .profile import StartDensity, WindowSpec, _check_base
from .quadrature import integrate

# The most samples one arc, tangent line or geodesic takes: `qpaths arctic`
# holds about 275 bytes a sample on HEX_LIKE (five branches), with or
# without --svg, so at the cap it stays under 1 GiB.
MAX_SAMPLES = 1_000_000

# Relative floor under which the envelope denominator D counts as zero.
_SINGULAR_REL = 1e-14

# A pole qq**a is formed as a double only where |a ln qq| <= _LOG_RANGE,
# which keeps it a normal double; the arc sweep keeps |ln|t|| within it too.
_LOG_RANGE = 700.0

# A t > 0 within this many units of rounding of a branch end, in
# tau = ln t / ln qq, counts as the end: x(t) has no digits there.
_END_ULPS = 4.0

_LN2 = math.log(2.0)
# ln of the largest double: exp of more overflows.
_LOG_MAX = math.log(sys.float_info.max)

# The exit height is refused where the rounding of the logarithms summed
# for xi ln qq exceeds this fraction of the sum.
_XI_REL = 1e-8

# Branch sweeps stop approaching t = 0 once |t| falls below this fraction
# of the smallest pole magnitude, and arctic_point refuses such a t: beyond
# it the envelope denominator behaves like t**2 and cancellation destroys
# the point map.
_ZERO_RHO = 1e-2


@dataclass(frozen=True)
class TDomain:
    """One maximal admissible interval of the tangency parameter t.

    ``branch`` is "right", "left", "gap_window_<m>" or
    "filled_window_<m>" with m counting windows of the density from 1.
    ``sign_of_x`` is the constant sign of x(t) on the interval: negative
    exactly on filled windows.  ``lo``/``hi`` may be infinite; the
    interval is open at every endpoint.  ``taus`` and ``log_q`` place a
    t > 0 by tau = ln t / ln qq, as for every evaluator.
    """

    lo: float
    hi: float
    branch: str
    sign_of_x: int
    taus: tuple[float, float] = field(repr=False)
    log_q: float = field(repr=False)
    window: Optional[WindowSpec] = None

    def __contains__(self, t: float) -> bool:
        """Whether t lies on the branch.

        A t <= 0 lies on the branch whose interval reaches -inf.  A t > 0
        lies on it when tau lies inside ``taus`` and more than _END_ULPS
        units of rounding (ulp of the end, eps / |ln qq| for t) from its
        nearer end: closer, x(t) has no digits.  A non-finite t lies on no
        branch.
        """
        if not math.isfinite(t):
            return False
        if t <= 0.0:
            return self.lo == -math.inf
        lo, hi = self.taus
        tau = math.log(t) / self.log_q
        if not lo < tau < hi:
            return False
        end = lo if tau - lo < hi - tau else hi
        slack = math.ulp(end) + sys.float_info.epsilon / abs(self.log_q)
        return abs(tau - end) > _END_ULPS * slack


@dataclass(eq=False)
class Curve:
    """A sampled arc in the (X, Y) rescaled plane.

    ``txy`` is an (n, 3) float array of (t, X, Y) rows in sweep order;
    ``skipped`` counts parameter values dropped because the point map was
    singular there or x(t) had no digits (t on no branch).
    """

    txy: np.ndarray
    skipped: int = 0
    self_intersecting: bool = False

    @property
    def points(self) -> list[tuple[float, float, float]]:
        """The (t, X, Y) rows as float tuples."""
        return list(map(tuple, self.txy.tolist()))

    def __len__(self) -> int:
        return len(self.txy)


@dataclass(frozen=True)
class ScalingVars:
    """Saddle-point data attached to one tangency point.

    ``xi`` is the rescaled exit height and ``z`` the rescaled free-path
    length of the tangent geodesic.
    """

    xi: float
    z: float


def _log_shift(y: float, positive: bool) -> float:
    """ln|e**y - 1| if positive, else ln(e**y + 1), for a float y.

    Written max(y, 0) + ln|sigma - e**m| with m = -|y|, so e**y is never
    formed.  ln(1 - e**m) takes log1p(-e**m) below m = -ln 2 and
    ln(-expm1(m)) above, which keeps its relative digits for every m
    (Maechler, 2012).  Raises InvalidArgument at y = 0 when positive, where
    the log argument is zero.
    """
    m = -abs(y)
    if not positive:
        return max(y, 0.0) + math.log1p(math.exp(m))
    if m < -_LN2:
        return max(y, 0.0) + math.log1p(-math.exp(m))
    if not m:
        raise InvalidArgument("log argument is zero")
    return max(y, 0.0) + math.log(-math.expm1(m))


def _log_shift_array(y, positive):
    """_log_shift elementwise over numpy arrays; ``positive`` may be an array.

    Gives -inf at y = 0 when positive, where the scalar form raises.
    """
    import numpy as np
    m = -np.abs(y)
    e = np.exp(m)
    tail = np.where(positive, np.where(m < -_LN2, np.log1p(-e), np.log(-np.expm1(m))),
                    np.log1p(e))
    return np.maximum(y, 0.0) + tail


def _log_abs(value: float) -> float:
    return math.log(abs(value)) if value else -math.inf


def _pole(a: float, qq: float, log_q: float) -> tuple[float, float]:
    """The pole (e, E) = (a ln qq, qq**a), the one place a pole is formed:
    E is 0 or inf where |e| > _LOG_RANGE would leave the normal doubles."""
    e = a * log_q
    return e, (qq**a if abs(e) <= _LOG_RANGE else (0.0 if e < 0.0 else math.inf))


def _log_pole(t: float, e: float, pole: float) -> tuple[float, bool]:
    """(ln|t - E|, t > E) for a float t and a pole (e, E) of _pole.

    The one place a pole meets t: from t - E where E is a double (0 < E <
    inf), which keeps the digits of t next to the pole, with ln 0 = -inf;
    else e + ln|sigma e**y - 1| with y = ln|t| - e.
    """
    if 0.0 < pole < math.inf:
        gap = t - pole
        return _log_abs(gap), gap > 0.0
    if t == 0.0:
        return e, False
    y = math.log(abs(t)) - e
    return e + _log_shift(y, t > 0.0), t > 0.0 and y > 0.0


def _pole_pair(a_lo: float, a_hi: float, qq: float, log_q: float):
    """The poles lo, hi of a_lo, a_hi (_pole) and span = ln|E_hi - E_lo|, None where
    both are doubles, -inf where a_hi - a_lo rounds to 0: the one place a pair is formed."""
    lo, hi, rise = _pole(a_lo, qq, log_q), _pole(a_hi, qq, log_q), (a_hi - a_lo) * log_q
    doubles = 0.0 < lo[1] < math.inf and 0.0 < hi[1] < math.inf
    return lo, hi, None if doubles else (lo[0] + _log_shift(rise, True) if rise else -math.inf)


def _log_quotient(t: float, lo, hi, span) -> tuple[float, bool]:
    """(ln|(t - E_hi) / (t - E_lo)|, whether the quotient is positive) at a float t: log1p
    of (E_lo - E_hi) / (t - E_lo) in (-1/2, 1), else the pole logs.  Not finite at t = E_lo."""
    l_hi, above_hi = _log_pole(t, *hi)
    l_lo, above_lo = _log_pole(t, *lo)
    if span is None:
        gap = t - lo[1]
        ratio = (lo[1] - hi[1]) / gap if gap else math.inf
    else:
        # E_hi - E_lo has the sign of e_hi - e_lo; |ratio| >= 1 takes the logs below.
        size = math.exp(min(span - l_lo, 0.0))
        ratio = size if (hi[0] > lo[0]) != above_lo else -size
    if -0.5 < ratio < 1.0:
        return math.log1p(ratio), True
    return l_hi - l_lo, above_hi == above_lo


def _log_poles(t, e: float, pole: float):
    """_log_pole elementwise over a numpy array of t."""
    import numpy as np
    if 0.0 < pole < math.inf:
        return np.log(np.abs(t - pole)), t > pole
    y = np.log(np.abs(t)) - e
    return e + _log_shift_array(y, t > 0.0), (t > 0.0) & (y > 0.0)


class _Scaled:
    """The per-(density, base) quantities every evaluator builds on: the
    poles, each formed once by _pole, and the branch ladder.  Built by
    :func:`_scaled`, which keeps the one of the density's last base on the
    density, so it is read-only once built."""

    __slots__ = ("qq", "log_q", "parts", "lost", "top", "top_pole", "domains")

    def __init__(self, d: StartDensity, qq: float):
        """``qq`` is a base already checked by profile._check_base."""
        self.qq = qq
        self.log_q = log_q = math.log(qq)
        # Per linear segment (jumps add no factor to x(t)): a_lo, a_hi, 1/p, pole pair.
        self.parts = tuple((el.a_lo, el.a_hi, 1.0 / el.p, *_pole_pair(el.a_lo, el.a_hi, qq, log_q))
                           for el in d.segment_elements())
        # The share of ln x or ln(qq x) lost to the rounded poles next to base 1:
        # each factor's eps E / |t - E| / p, of a sum of about |ln qq| E / |t - E|.
        self.lost = sys.float_info.epsilon * sum(el[2] for el in self.parts) / abs(log_q)
        self.top = d.alpha_top
        _, e_right = self.top_pole = _pole(self.top, qq, log_q)
        # The branch ladder: right arc, left arc, then one per window.  Each
        # branch holds the t > 0 whose tau = ln t / ln qq lies in its taus
        # interval; its t bounds are the poles, 0 or inf where those leave
        # the doubles.
        inf = math.inf
        outer = [(e_right, inf), (-inf, 1.0)] if self.qq > 1.0 else [(-inf, e_right), (1.0, inf)]
        domains = [
            TDomain(*outer[0], "right", 1, taus=(self.top, inf), log_q=log_q),
            TDomain(*outer[1], "left", 1, taus=(-inf, 0.0), log_q=log_q),
        ]
        for idx, w in enumerate(d.windows):
            lo, hi = sorted((_pole(w.a_lo, qq, log_q)[1], _pole(w.a_hi, qq, log_q)[1]))
            sign = -1 if w.kind == "filled" else 1
            domains.append(TDomain(lo, hi, f"{w.kind}_window_{idx + 1}", sign, window=w,
                                   taus=(w.a_lo, w.a_hi), log_q=log_q))
        self.domains = tuple(domains)

    def domain(self, t: float) -> TDomain:
        """The branch that holds t (see TDomain.__contains__).

        Raises InvalidArgument for a non-finite t and for a t on no branch:
        a branch end, or a point of the density support outside every
        window.
        """
        for dom in self.domains:
            if t in dom:
                return dom
        raise InvalidArgument(f"t={t!r} lies on no branch of the arctic curve")

    # -- x(t) and s = t x'(t) / x(t) -------------------------------------

    def near_zero(self, t: float) -> bool:
        """Whether |t| < half the smallest pole (in logs), where that pole is a normal double."""
        log_min = min(0.0, self.top_pole[0])
        return log_min >= -_LOG_RANGE and (not t or math.log(abs(t)) < log_min - _LN2)

    def tau_zero(self) -> float:
        """tau of |t| = _ZERO_RHO times the smallest pole (1 for qq > 1, qq**top for qq < 1)."""
        tau = math.log(_ZERO_RHO) / self.log_q
        return tau + self.top if self.qq < 1.0 else tau

    def log_x(self, t: float) -> tuple[float, float]:
        """(ln x, ln(qq x)) at a float t of an outer branch, where x > 0.

        Near zero ln x sums (log1p(-t/E_hi) - log1p(-t/E_lo)) / p, t/E = 0
        where E is beyond the doubles: the a ln qq parts of ln|t - E| cancel
        -ln qq exactly, as the widths (a_hi - a_lo) / p sum to 1.  Else
        ln(qq x) sums the segments' _log_quotient / p, which keeps its digits
        as |t| grows and qq x -> 1.
        """
        if self.near_zero(t):
            lx = sum(inv_p * (math.log1p(-t / hi[1]) - math.log1p(-t / lo[1]))
                     for _, _, inv_p, lo, hi, _ in self.parts)
            return lx, lx + self.log_q
        log_qx = 0.0
        for _, _, inv_p, lo, hi, span in self.parts:
            log_qx += inv_p * _log_quotient(t, lo, hi, span)[0]
        return log_qx - self.log_q, log_qx

    def log_abs_x(self, t: float) -> float:
        """ln|x| at a float t of any branch: log_x's next to t = 0, else -ln qq
        plus the segments' _log_quotient / p, summed in the order of terms,
        the kernel of the swept points: log_x's ln(qq x) - ln qq rounds
        otherwise and moves envelope residuals next to branch ends."""
        if self.near_zero(t):
            return self.log_x(t)[0]
        lx = -self.log_q
        for _, _, inv_p, lo, hi, span in self.parts:
            lx += inv_p * _log_quotient(t, lo, hi, span)[0]
        return lx

    def terms(self, t, sign: int):
        """Return (log|x|, x, 1 - x, s) at t, elementwise over numpy arrays.

        ``sign`` is the sign of x on the branch of t.  No product of two
        factors (t - E) is formed, so s stays finite wherever t is.  numpy
        raises and warns of nothing here: a value that left the doubles
        comes back as inf, 0 or nan, for the caller to mask or refuse.
        """
        import numpy as np
        with np.errstate(all="ignore"):
            lx = -self.log_q
            s = 0.0
            for _, _, inv_p, lo, hi, span in self.parts:
                l_hi, above_hi = _log_poles(t, *hi)
                l_lo, above_lo = _log_poles(t, *lo)
                lx = lx + inv_p * (l_hi - l_lo)
                if span is None:
                    s = s + inv_p * (hi[1] - lo[1]) / (t - hi[1]) * (t / (t - lo[1]))
                    continue
                # The same term t (E_hi - E_lo) / ((t - E_hi)(t - E_lo)) from the
                # logs of its factors; E_hi - E_lo has the sign of ln qq.
                size = np.exp(np.log(np.abs(t)) + span - l_hi - l_lo)
                sign_t = np.sign(t) * np.where(above_hi == above_lo, 1.0, -1.0)
                s = s + math.copysign(inv_p, self.log_q) * sign_t * size
            x_abs = np.exp(lx)
            one_minus_x = -np.expm1(lx) if sign > 0 else 1.0 + x_abs
            return lx, sign * x_abs, one_minus_x, s


def _scaled(d: StartDensity, qq: float) -> _Scaled:
    """The _Scaled of d at base qq, which is checked here (profile._check_base).

    The density keeps the one of its last base and rebuilds it only when
    the base changes, as StartSequence keeps its exit law for its last q:
    the evaluators of one tangent construction share one branch ladder.
    """
    qq = _check_base(qq)
    sc = d._scaled
    if sc is None or sc.qq != qq:
        sc = d._scaled = _Scaled(d, qq)
    return sc


@float_range
def t_domains(d: StartDensity, qq: float) -> list[TDomain]:
    """All admissible t intervals: right arc, left arc, then one per window.

    A fresh list each call: the density's stored ladder stays as built.
    """
    return list(_scaled(d, qq).domains)


def _pole_free(z: float) -> float:
    """1/z - 1/expm1(z): smooth, in (0, 1), and 1/2 at z = 0."""
    if abs(z) < 0.1:
        # Both terms are near 1/z here; the Bernoulli series keeps the digits.
        w = z * z
        return 0.5 - z * (1.0 / 12.0 - w * (1.0 / 720.0 - w * (1.0 / 30240.0 - w / 1209600.0)))
    # For z > 0 the form with e**(-z) cannot overflow.
    return 1.0 / z - (math.exp(-z) / -math.expm1(-z) if z > 0.0 else 1.0 / math.expm1(z))


@float_range
def x_of_t(d: StartDensity, qq: float, t: float, *, method: str = "closed") -> float:
    """The tangent-family weight x(t) at an admissible parameter value.

    ``method="closed"`` uses the exact product form for piecewise-linear
    densities, in plain math (_Scaled.log_abs_x).  ``method="quadrature"``
    integrates the defining exponent numerically, one linear element at a
    time.  For t > 0 the integrand t/(t - qq**a) = -1/expm1(z), z = (a -
    tau) ln qq with qq**tau = t, has a pole at a = tau when t lies on or
    next to the density support: its pole part -1/z integrates in closed
    form (a principal value inside a filled window) and the bounded
    remainder 1/z - 1/expm1(z) goes to the quadrature.  For t <= 0 the integrand is 1 / (1 + e**z).  The sign of x
    comes from the branch of t.
    """
    t = real_value(t, "t")
    sc = _scaled(d, qq)
    sign = sc.domain(t).sign_of_x
    if method == "closed":
        lx = sc.log_abs_x(t)
        return float_value(sign * (math.exp(lx) if lx <= _LOG_MAX else math.inf), f"x at t={t!r}")
    if method != "quadrature":
        raise InvalidArgument(f"unknown method {method!r}")
    log_q = sc.log_q
    if t > 0.0:
        tau = math.log(t) / log_q

        def integrand(a: float) -> float:
            return _pole_free((a - tau) * log_q)
    else:
        # t / (t - qq**a) = 1 / (1 + e**z), z = a ln qq - ln|t|, without
        # forming qq**a.
        log_t = math.log(-t) if t else -math.inf

        def integrand(a: float) -> float:
            return 0.5 - 0.5 * math.tanh(0.5 * (a * log_q - log_t))

    def log_depth(e: float, pole: float) -> float:
        # ln|ln(t / E)| at a pole (e, E); next to the pole, ln(t / E) is
        # log1p((t - E) / E), whose argument the kernel gives.
        gap, above = _log_pole(t, e, pole)
        w = gap - e
        if w < -1.0:
            return math.log(abs(math.log1p(math.exp(w) if above else -math.exp(w))))
        return math.log(abs(math.log(t) - e))

    # x = qq**(-exponent): its relative error is |ln qq| times the exponent's.
    rel_tol = 1e-12 / max(1.0, abs(log_q))
    exponent = 0.0
    for a_lo, a_hi, inv_p, lo, hi, _ in sc.parts:
        part = integrate(integrand, a_lo, a_hi, rel_tol=rel_tol, abs_tol=1e-15)
        if t > 0.0:
            # -int da / ((a - tau) ln qq), where (a - tau) ln qq = -ln(t / qq**a).
            part -= (log_depth(*hi) - log_depth(*lo)) / log_q
        exponent += inv_p * part
    return sign * math.exp(-exponent * log_q)


def _tangency(sc: _Scaled, t, sign: int):
    """The point map (X, Y, regular) at t, elementwise; ``sign`` is that of x.

    With x divided out of the envelope denominator D = x (s + 1 - x), a
    point is regular where s + 1 - x does not vanish relative to
    |s| + |1 - x|, x is not 1 to rounding (the degenerate point t = 0),
    and qq**X, qq**Y are positive.  Where qq**X or qq**Y is no normal
    double, its log comes from the logs of its factors.
    """
    import numpy as np
    with np.errstate(all="ignore"):
        _, x, one_minus_x, s = sc.terms(t, sign)
        den = s + one_minus_x
        num_y = s + one_minus_x / x
        log_den = np.log(np.abs(den))
        log_qx = _log_positive(t * s / den, np.log(np.abs(t)) + np.log(np.abs(s)) - log_den)
        log_qy = _log_positive(num_y / den, np.log(np.abs(num_y)) - log_den)
        regular = np.abs(den) >= _SINGULAR_REL * (np.abs(s) + np.abs(one_minus_x))
        regular &= (one_minus_x != 0.0) & np.isfinite(log_qx) & np.isfinite(log_qy)
        return log_qx / sc.log_q, log_qy / sc.log_q, regular


def _log_positive(q, log_abs):
    """ln q elementwise, nan where q <= 0.  Where q is no normal double its
    log is log_abs, from the logs of its factors; an under- or overflowed q
    keeps its sign."""
    import numpy as np
    normal = (np.abs(q) >= sys.float_info.min) & (np.abs(q) <= sys.float_info.max)
    return np.where(normal, np.log(q), np.where(np.copysign(1.0, q) > 0.0, log_abs, np.nan))


def _envelope_residual(x: float, qq: float, t: float, bx: float, by: float) -> float:
    """|x qq**Y + (1 - x) qq**X / t - 1| relative to the larger of 1 and the two terms.

    In doubles where qq**X and qq**Y are normal and both terms finite, where
    a residual with terms of size at most 1 is the plain one; else from
    the logs of the terms' factors, so that terms beyond the doubles next
    to t = 0 at extreme bases keep their digits.
    """
    log_q = math.log(qq)
    if max(abs(bx), abs(by)) * abs(log_q) <= _LOG_RANGE:
        term_y, term_x = x * qq**by, (1.0 - x) / t * qq**bx
        if math.isfinite(term_y) and math.isfinite(term_x):
            return abs(term_y + term_x - 1.0) / max(abs(term_y), abs(term_x), 1.0)
    log_y = _log_abs(x) + by * log_q
    log_x = _log_abs(1.0 - x) - math.log(abs(t)) + bx * log_q
    scale = max(log_y, log_x, 0.0)
    return abs(math.copysign(math.exp(log_y - scale), x)
               + math.copysign(math.exp(log_x - scale), (1.0 - x) * t) - math.exp(-scale))


def _txy(t, bx, by) -> np.ndarray:
    import numpy as np
    return np.column_stack([np.broadcast_to(t, np.shape(bx)), bx, by])


@float_range
def arctic_point(d: StartDensity, qq: float, t: float) -> tuple[float, float]:
    """The (X, Y) tangency point of the arctic curve at parameter t.

    Raises SingularPoint where the envelope map degenerates or, nearer
    t = 0 than the sweep's stop (_Scaled.tau_zero), has no digits, and
    InvalidArgument for t outside every branch.
    """
    t = real_value(t, "t")
    sc = _scaled(d, qq)
    if not t or math.log(abs(t)) < sc.tau_zero() * sc.log_q:
        raise SingularPoint(f"point map has no digits at t={t!r}, nearer 0 than the sweep's stop")
    bx, by, regular = _tangency(sc, t, sc.domain(t).sign_of_x)
    if not regular:
        raise SingularPoint(f"point map singular or undefined at t={t!r}")
    return float(bx), float(by)


def _leg_taus(lo: float, hi: float, count: int, open_lo: bool, open_hi: bool) -> np.ndarray:
    """Affine grid from lo to hi with geometric refinement toward open ends.

    Open endpoints are branch boundaries where the curve closes onto a
    limiting point; a geometric ladder (down to 1e-9 of the span) makes
    the sampled arc approach it closely without ever evaluating on the
    boundary itself.  The grid runs from lo to hi in either direction.
    """
    import numpy as np
    if hi < lo:
        return _leg_taus(hi, lo, count, open_hi, open_lo)[::-1]
    count = max(count, 4)
    span = hi - lo
    ladder = span * 10.0 ** -np.arange(1.0, 10.0)
    grid = lo + span * np.arange(count) / (count - 1)
    pieces = [grid[int(open_lo) : count - int(open_hi)]]
    if open_lo:
        pieces.append(lo + ladder)
    if open_hi:
        pieces.append(hi - ladder)
    return np.unique(np.concatenate(pieces))


def _on_branch(dom: TDomain, t: np.ndarray) -> np.ndarray:
    """``t in dom`` elementwise over the t of a sweep of dom.

    numpy's log may differ from math.log by an ulp, so the rule itself runs
    on every t > 0 within twice its band of an end; every other t lies on
    dom.
    """
    import numpy as np
    with np.errstate(divide="ignore", invalid="ignore"):
        tau = np.log(t) / dom.log_q
    lo, hi = dom.taus
    top = max((abs(e) for e in dom.taus if math.isfinite(e)), default=0.0)
    band = 2.0 * _END_ULPS * sys.float_info.epsilon * (top + 1.0 / abs(dom.log_q))
    keep = np.ones(len(t), dtype=bool)
    near = np.flatnonzero((t > 0.0) & ~((tau - lo > band) & (hi - tau > band)))
    keep[near] = [float(t[i]) in dom for i in near]
    return keep


def _branch_legs(sc: _Scaled, dom: TDomain) -> list[tuple[int, float, float, bool, bool]]:
    """Sweep legs (sign, tau_lo, tau_hi, open_lo, open_hi) covering dom.

    t = sign * qq**tau.  A window's leg runs over its element's values;
    an outer branch runs from its far end, 40 tau-units past the pole at
    tau = 0 and at least 20 past the one at alpha(1), to its finite end,
    flagged open for geometric refinement; legs running into t = 0 stop at
    |t| = _ZERO_RHO * min pole.  Every leg is cut where |ln|t|| passes
    _LOG_RANGE, and a cut end is no longer open.  A branch left with no
    leg raises NumericalFailure.
    """
    bound = _LOG_RANGE / abs(sc.log_q)
    if dom.window is not None:
        legs = [(1, dom.window.a_lo, dom.window.a_hi, True, True)]
    else:
        # Outer branches: the finite end is t = qq**top (right) or t = 1
        # (left).
        end = sc.top if dom.branch == "right" else 0.0
        reach = max(40.0, sc.top + 20.0) if sc.log_q > 0.0 else 40.0
        far = math.copysign(min(reach, bound), sc.log_q)
        if dom.hi == math.inf:
            legs = [(1, end, far, True, False)] if abs(far) > abs(end) else []
        else:
            # The branch crosses t = 0: negative axis from the far end, then
            # the positive axis up to the finite end.
            tau_zero = sc.tau_zero()
            legs = [(-1, far, tau_zero, False, False), (1, tau_zero, end, False, True)]
    legs = [(sign, max(-bound, min(bound, lo)), max(-bound, min(bound, hi)),
             open_lo and abs(lo) <= bound, open_hi and abs(hi) <= bound)
            for sign, lo, hi, open_lo, open_hi in legs]
    legs = [leg for leg in legs if leg[1] != leg[2]]
    if not legs:
        raise NumericalFailure(
            f"the {dom.branch} branch lies beyond the float range at base {sc.qq!r}")
    return legs


@float_range
def arctic_curve(d: StartDensity, qq: float, dom: TDomain, *, n_samples: int = 400) -> Curve:
    """Sample one arc of the arctic curve along its t interval.

    ``dom`` is a TDomain of :func:`t_domains` at this density and base,
    else InvalidArgument.  The sweep walks t = +-qq**tau over the interval,
    clustering samples geometrically near finite branch ends; t where the
    point map is singular or leaves the float range, or that lie on no
    branch (see TDomain.__contains__), are skipped and counted.  A branch
    without a regular point raises NumericalFailure.
    """
    import numpy as np
    sc = _scaled(d, qq)
    if dom not in sc.domains:
        raise InvalidArgument(f"{dom!r} is no branch of this density at base {sc.qq!r}")
    n_samples = integer_value(n_samples, "n_samples", 2, MAX_SAMPLES)
    legs = _branch_legs(sc, dom)
    total_span = sum(abs(hi - lo) for _, lo, hi, _, _ in legs)
    # Every leg gets a fair floor: tau spans are a poor proxy for arc
    # length, and a short leg can carry a long visible piece of curve.
    floor = max(8, n_samples // (2 * len(legs)))
    t = np.concatenate([
        sign * sc.qq ** _leg_taus(lo, hi, max(floor, round(n_samples * abs(hi - lo) / total_span)),
                                  open_lo, open_hi)
        for sign, lo, hi, open_lo, open_hi in legs
    ])
    bx, by, regular = _tangency(sc, t, dom.sign_of_x)
    regular &= _on_branch(dom, t)
    if not regular.any():
        raise NumericalFailure(f"no point of branch {dom.branch} is regular at base {sc.qq!r}")
    from .geometry import polyline_self_intersects

    txy = _txy(t[regular], bx[regular], by[regular])
    return Curve(txy, skipped=int(np.count_nonzero(~regular)),
                 self_intersecting=polyline_self_intersects(txy[:, 1:]))


@float_range
def tangent_curve(d: StartDensity, qq: float, t: float, *, n_samples: int = 100) -> Curve:
    """The tangent line of the family at parameter t, in (X, Y) space.

    Solves x(t) qq**Y + ((1 - x(t)) / t) qq**X = 1 for Y on a grid of X
    from 0 to alpha_top + 1, keeping only the part where qq**Y is
    positive.  The arctic curve is the envelope of these lines as t
    sweeps a branch.  Raises SingularPoint at t = 0, where x = 1 and the
    line degenerates, and NumericalFailure where x or (1 - x) / t leaves
    the doubles.
    """
    import numpy as np
    t = real_value(t, "t")
    sc = _scaled(d, qq)
    if t == 0.0:
        raise SingularPoint(f"tangent line undefined at t={t!r}: x = 1, the degenerate point")
    _, x, one_minus_x, _ = sc.terms(t, sc.domain(t).sign_of_x)
    x = float_value(float(x), f"x at t={t!r}")
    if x == 0.0:
        raise SingularPoint(f"tangent line undefined at t={t!r}: x = 0")
    coeff = float_value(float(one_minus_x) / t, f"(1 - x) / t at t={t!r}")
    n_samples = integer_value(n_samples, "n_samples", 2, MAX_SAMPLES)
    bx = (sc.top + 1.0) * np.arange(n_samples) / (n_samples - 1)
    with np.errstate(all="ignore"):
        qy = (1.0 - coeff * sc.qq**bx) / x
    keep = (qy > 0.0) & np.isfinite(qy)
    return Curve(_txy(t, bx[keep], np.log(qy[keep]) / sc.log_q))


@float_range
def geodesic(qq: float, xi: float, z: float, *, n_samples: int = 100) -> Curve:
    """Limit shape of the free path tail between (0, 1 + z) and (xi, 1).

    Satisfies (1 - qq**X)/(1 - qq**xi) + (1 - qq**(Y-1))/(1 - qq**z) = 1
    for X in [0, xi].  Degenerates to the straight segment as qq -> 1.
    """
    import numpy as np
    qq = _check_base(qq)
    xi, z = real_value(xi, "xi"), real_value(z, "z")
    if xi <= 0.0 or z <= 0.0:
        raise InvalidArgument(f"geodesic needs xi > 0 and z > 0, got xi={xi}, z={z}")
    n_samples = integer_value(n_samples, "n_samples", 2, MAX_SAMPLES)
    log_q = math.log(qq)
    bx = xi * np.arange(n_samples) / (n_samples - 1)
    with np.errstate(all="ignore"):
        qy1 = 1.0 + math.expm1(z * log_q) * (1.0 - np.expm1(bx * log_q) / math.expm1(xi * log_q))
    keep = (qy1 > 0.0) & np.isfinite(qy1)
    return Curve(_txy(math.nan, bx[keep], 1.0 + np.log(qy1[keep]) / log_q))


def _exit_params(d: StartDensity, qq: float, t: float, branch: str) -> ScalingVars:
    """(xi, z) at t on an outer branch, where x > 0, from _Scaled.log_x.

    qq**xi is taken in logs with its sign, and qq**z from ln(1 - w), with w
    in doubles where it and its factors are normal doubles.
    """
    t = real_value(t, "t")
    sc = _scaled(d, qq)
    dom = sc.domain(t)
    if dom.branch != branch:
        raise InvalidArgument(f"t={t!r} is on branch {dom.branch!r}, not {branch!r}")
    lx, log_qx = sc.log_x(t)
    if t == 0.0 or lx == 0.0:
        raise InvalidArgument(f"no exit parameters at t={t!r}: x = 1, the degenerate point")
    # qq**xi = t (qq x - 1) / (x - 1), with qq x - 1 = expm1(ln(qq x)) and
    # x - 1 of the sign of ln x.
    if log_qx == 0.0 or (t > 0.0) != ((log_qx > 0.0) == (lx > 0.0)):
        raise InvalidArgument(f"no real exit height at t={t!r} (qq^xi <= 0)")
    log_q, log_t, pole = sc.log_q, math.log(abs(t)), 1.0
    # xi ln qq = ln|t| + ln|qq x - 1| - ln|x - 1|. Next to t = 0 ln|t| and
    # ln|x - 1| cancel, and (x - 1) / t is finite.
    log_qx1 = _log_shift(log_qx, True)
    if sc.near_zero(t):
        log_x1 = math.log(abs(math.expm1(lx) / t))
        xi_log_q, size = log_qx1 - log_x1, abs(log_qx1) + abs(log_x1)
    else:
        log_x1 = _log_shift(lx, True)
        xi_log_q, size = log_t + log_qx1 - log_x1, abs(log_t) + abs(log_qx1) + abs(log_x1)
    # Next to base 1 far out on the infinite leg the terms are large and
    # their sum is small: its rounding, eps times the terms, can swamp it,
    # as can ln x or ln(qq x) gone subnormal, whose logs then keep no digit
    # (a half ulp of y moves ln|e**y - 1| by about ulp(y) / |y| for small y).
    # And ln x and ln(qq x) have each lost sc.lost of themselves to the poles.
    error = (sys.float_info.epsilon * size + math.ulp(lx) / abs(lx) + math.ulp(log_qx) / abs(log_qx)
             + 2.0 * sc.lost)
    if error > _XI_REL * abs(xi_log_q):
        raise NumericalFailure(f"the exit height at t={t!r} cancels in its logarithms at base {qq!r}")
    xi = xi_log_q / log_q
    if branch == "left":
        # The right branch of the reflected model, d* at 1/qq and t qq**(-top),
        # where ln x, ln(qq x) and ln qq change sign.
        lx, log_qx, log_q, log_t = -lx, -log_qx, -log_q, log_t - sc.top_pole[0]
        pole = sc.top_pole[1]
    # qq**z = (t - (1 - x)) / (t qq x) = (1 - w) / (qq x), w = (1 - x) / t.
    logs, w_positive = (_log_shift(lx, True), -log_t), (t > 0.0) == (lx < 0.0)
    direct = max(map(abs, (*logs, sum(logs)))) <= _LOG_RANGE and 0.0 < pole < math.inf
    if direct:
        # w, its factors and t / pole are normal doubles: log1p(-w) keeps its digits.
        w = -math.expm1(lx) / (t / pole)
        real = w < 1.0
    else:
        log_w = sum(logs)
        real = not w_positive or log_w < 0.0
    if not real:
        raise InvalidArgument(f"no real tail length at t={t!r} (qq^z <= 0)")
    # Else ln|1 - w| = ln|sigma e**log_w - 1|.
    log_1mw = math.log1p(-w) if direct else _log_shift(log_w, w_positive)
    return ScalingVars(xi=xi, z=(log_1mw - log_qx) / log_q)


@float_range
def exit_params_right(d: StartDensity, qq: float, t: float) -> ScalingVars:
    """Saddle parameters (xi, z) of the right-branch tangency at t.

    xi lies in (0, alpha_top); z > 0 measures the free tail length.
    Raises InvalidArgument when t is not on the right branch, and where
    xi or z has no real value.
    """
    return _exit_params(d, qq, t, "right")


@float_range
def exit_params_left(d: StartDensity, qq: float, t: float) -> ScalingVars:
    """Saddle parameters (xi, z) of the left-branch tangency at t.

    xi lies in (1, alpha_top + 1): the left construction hangs the free
    tail from the dual corner.  Raises InvalidArgument off the branch, and
    where xi or z has no real value.
    """
    return _exit_params(d, qq, t, "left")
