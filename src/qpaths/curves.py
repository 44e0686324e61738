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
paths freeze into gap or filled phases.  x(t) is evaluated in log space
and s as a sum of bounded factors, so extreme bases such as
``qq = 1e-20`` stay well conditioned; the point map runs on numpy arrays
of t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidArgument, NumericalFailure, SingularPoint, float_range
from .profile import StartDensity, WindowSpec
from .quadrature import integrate, integrate_pv

__all__ = [
    "TDomain",
    "Curve",
    "ScalingVars",
    "t_domains",
    "x_of_t",
    "dx_dt",
    "arctic_point",
    "arctic_curve",
    "tangent_curve",
    "geodesic",
    "exit_params_right",
    "exit_params_left",
]

# Relative floor under which the envelope denominator D counts as zero.
_SINGULAR_REL = 1e-14

# Branch sweeps stop approaching t = 0 once |t| falls below this fraction
# of the smallest pole magnitude: beyond that the envelope denominator
# behaves like t**2 and cancellation destroys the point map.
_ZERO_RHO = 1e-2


def _check_base(qq: float) -> float:
    qq = float(qq)
    if not math.isfinite(qq) or qq <= 0.0:
        raise InvalidArgument(f"base must be a finite positive number, got {qq!r}")
    if qq == 1.0:
        raise InvalidArgument(
            "base 1 is the unweighted point; the scaled model needs base != 1"
        )
    return qq


@dataclass(frozen=True)
class TDomain:
    """One maximal admissible interval of the tangency parameter t.

    ``branch`` is "right", "left", "gap_window_<m>" or
    "filled_window_<m>" with m counting windows of the density from 1.
    ``sign_of_x`` is the constant sign of x(t) on the interval: negative
    exactly on filled windows.  ``lo``/``hi`` may be infinite; the
    interval is open at every endpoint.
    """

    lo: float
    hi: float
    branch: str
    sign_of_x: int
    window: Optional[WindowSpec] = None

    def __contains__(self, t: float) -> bool:
        return self.lo < t < self.hi


@dataclass
class Curve:
    """A sampled arc in the (X, Y) rescaled plane.

    ``points`` holds (t, X, Y) triples in sweep order; ``skipped``
    counts parameter values dropped because the point map was singular
    there.  ``branch`` is None for derived curves (tangent lines,
    geodesics) that are not tied to a t interval.
    """

    points: list[tuple[float, float, float]]
    qq: float
    branch: Optional[TDomain] = None
    skipped: int = 0
    self_intersecting: bool = False

    def xy(self) -> list[tuple[float, float]]:
        return [(x, y) for _, x, y in self.points]

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class ScalingVars:
    """Saddle-point data attached to one tangency point.

    ``xi`` is the rescaled exit height and ``z`` the rescaled free-path
    length of the tangent geodesic.
    """

    xi: float
    z: float


class _Scaled:
    """Cached per-(density, base) quantities used by every evaluator."""

    __slots__ = ("d", "qq", "log_q", "parts", "top", "e_top", "windows")

    def __init__(self, d: StartDensity, qq: float):
        self.d = d
        self.qq = _check_base(qq)
        self.log_q = math.log(self.qq)
        # One (a_lo, a_hi, 1/p, E_lo, E_hi) tuple per linear segment;
        # jumps contribute no factor to x(t).
        self.parts = [
            (el.a_lo, el.a_hi, 1.0 / el.p, self.qq**el.a_lo, self.qq**el.a_hi)
            for el in d.segment_elements()
        ]
        self.top = d.alpha_top
        self.e_top = self.qq**self.top
        if 0.0 in (self.e_top, *(e for part in self.parts for e in part[3:])):
            raise NumericalFailure(f"a pole qq**a underflows to 0 at base {self.qq!r}")
        self.windows = d.windows

    # -- classification -------------------------------------------------

    def classify(self, t: float) -> tuple[str, int, Optional[WindowSpec]]:
        """Return (branch label, sign of x, window) for admissible t.

        Raises InvalidArgument when t falls on the inadmissible part of
        the ladder (a point of the density support that is not inside a
        window) or exactly on a domain boundary.
        """
        if not math.isfinite(t):
            raise InvalidArgument(f"tangency parameter must be finite, got {t!r}")
        if t <= 0.0:
            # Negative t (and t = 0) always lies on an outer branch.
            return ("left", 1, None) if self.qq > 1.0 else ("right", 1, None)
        # tau orients positive t on the qq-power ladder for either base:
        # beyond alpha(1) lies the right branch, below 0 the left one.
        tau = math.log(t) / self.log_q
        if tau >= self.top:
            if tau == self.top:
                raise InvalidArgument(f"t={t!r} sits on a branch boundary")
            return "right", 1, None
        if tau <= 0.0:
            if tau == 0.0:
                raise InvalidArgument(f"t={t!r} sits on a branch boundary")
            return "left", 1, None
        for idx, w in enumerate(self.windows):
            if w.a_lo < tau < w.a_hi:
                label = f"{w.kind}_window_{idx + 1}"
                return label, (-1 if w.kind == "filled" else 1), w
            if tau == w.a_lo or tau == w.a_hi:
                raise InvalidArgument(f"t={t!r} sits on a window boundary")
        raise InvalidArgument(
            f"t={t!r} maps into the density support (exponent {tau:.6g}); "
            "no branch of the arctic curve passes through it"
        )

    # -- x(t) and s = t x'(t) / x(t) -------------------------------------

    def terms(self, t, sign: int):
        """Return (log|x|, x, 1 - x, s) at t, elementwise over numpy arrays.

        ``sign`` is the sign of x on the branch of t.  No product of two
        factors (t - E) is formed, so s stays finite wherever t is.
        """
        lx = -self.log_q
        s = 0.0
        for _, _, inv_p, e_lo, e_hi in self.parts:
            lx = lx + inv_p * (np.log(np.abs(t - e_hi)) - np.log(np.abs(t - e_lo)))
            s = s + inv_p * (e_hi - e_lo) / (t - e_hi) * (t / (t - e_lo))
        x_abs = np.exp(lx)
        one_minus_x = -np.expm1(lx) if sign > 0 else 1.0 + x_abs
        return lx, sign * x_abs, one_minus_x, s


@float_range
def t_domains(d: StartDensity, qq: float) -> list[TDomain]:
    """All admissible t intervals: right arc, left arc, then one per window."""
    sc = _Scaled(d, qq)
    doms = []
    inf = math.inf
    if sc.qq > 1.0:
        doms.append(TDomain(sc.e_top, inf, "right", 1))
        doms.append(TDomain(-inf, 1.0, "left", 1))
    else:
        doms.append(TDomain(-inf, sc.e_top, "right", 1))
        doms.append(TDomain(1.0, inf, "left", 1))
    for idx, w in enumerate(sc.windows):
        lo, hi = sc.qq**w.a_lo, sc.qq**w.a_hi
        if lo > hi:
            lo, hi = hi, lo
        sign = -1 if w.kind == "filled" else 1
        doms.append(TDomain(lo, hi, f"{w.kind}_window_{idx + 1}", sign, window=w))
    return doms


@float_range
def x_of_t(d: StartDensity, qq: float, t: float, *, method: str = "closed") -> float:
    """The tangent-family weight x(t) at an admissible parameter value.

    ``method="closed"`` uses the exact product form for piecewise-linear
    densities.  ``method="quadrature"`` integrates the defining exponent
    numerically (principal value inside filled windows, where the sign
    comes from the analytic continuation across the support).
    """
    sc = _Scaled(d, qq)
    _, sign, window = sc.classify(t)
    if method == "closed":
        return float(sc.terms(t, sign)[1])
    if method != "quadrature":
        raise InvalidArgument(f"unknown method {method!r}")
    log_q = sc.log_q

    def in_filled(a_lo: float, a_hi: float) -> bool:
        return (
            window is not None
            and window.kind == "filled"
            and a_lo >= window.a_lo - 1e-12
            and a_hi <= window.a_hi + 1e-12
        )

    exponent = 0.0
    for a_lo, a_hi, inv_p, _, _ in sc.parts:
        if in_filled(a_lo, a_hi):
            continue  # handled as one principal value over the window

        def integrand(a: float) -> float:
            return t / (t - qq**a)

        exponent += inv_p * integrate(integrand, a_lo, a_hi, rel_tol=1e-12, abs_tol=1e-15)
    if window is not None and window.kind == "filled":
        # The pole sits inside the p = 1 run; integrate the whole run as
        # one principal value (slope 1 makes the integrand a single
        # analytic function of a there).  The continuation across the
        # support only flips the sign, which classify() already fixed.
        tau = math.log(t) / log_q

        def numerator(a: float) -> float:
            return -(a - tau) / math.expm1((a - tau) * log_q)

        exponent += integrate_pv(
            numerator, window.a_lo, window.a_hi, tau, rel_tol=1e-12, abs_tol=1e-15
        )
    return sign * math.exp(-exponent * log_q)


@float_range
def dx_dt(d: StartDensity, qq: float, t: float) -> float:
    """Derivative x'(t) of the closed-form tangent-family weight."""
    sc = _Scaled(d, qq)
    _, sign, _ = sc.classify(t)
    _, x, _, s = sc.terms(t, sign)
    if t == 0.0:
        # s vanishes with t; there x'/x = sum (1/p) (1/E_lo - 1/E_hi).
        return float(x * sum(inv_p * (1.0 / lo - 1.0 / hi) for *_, inv_p, lo, hi in sc.parts))
    return float(x * s / t)


def _tangency(sc: _Scaled, t, sign: int):
    """The point map (X, Y, regular) at t, elementwise; ``sign`` is that of x.

    With x divided out of the envelope denominator D = x (s + 1 - x), a
    point is regular where s + 1 - x does not vanish relative to
    |s| + |1 - x| and qq**X, qq**Y are finite and positive.
    """
    with np.errstate(all="ignore"):
        _, x, one_minus_x, s = sc.terms(t, sign)
        den = s + one_minus_x
        qx = t * s / den
        qy = (s + one_minus_x / x) / den
        regular = np.abs(den) >= _SINGULAR_REL * (np.abs(s) + np.abs(one_minus_x))
        regular &= (qx > 0.0) & (qy > 0.0) & np.isfinite(qx) & np.isfinite(qy)
        return np.log(qx) / sc.log_q, np.log(qy) / sc.log_q, regular


def _points(t, bx, by) -> list[tuple[float, float, float]]:
    return list(zip(np.broadcast_to(t, np.shape(bx)).tolist(), bx.tolist(), by.tolist()))


@float_range
def arctic_point(d: StartDensity, qq: float, t: float) -> tuple[float, float]:
    """The (X, Y) tangency point of the arctic curve at parameter t.

    Raises SingularPoint where the envelope map degenerates (for
    example t = 0, where x = 1 exactly) and InvalidArgument for t
    outside every branch.
    """
    sc = _Scaled(d, qq)
    bx, by, regular = _tangency(sc, t, sc.classify(t)[1])
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


def _branch_legs(sc: _Scaled, dom: TDomain) -> list[tuple[int, float, float, bool, bool]]:
    """Sweep legs (sign, tau_lo, tau_hi, open_lo, open_hi) covering dom.

    t = sign * qq**tau; infinite domain ends are truncated at |tau| =
    cap, finite open ends are flagged for geometric refinement, and
    legs running into t = 0 stop at |t| = _ZERO_RHO * min pole.
    """
    top = sc.top
    # 700 < ln(largest float) keeps qq**cap finite.
    cap = min(40.0, 700.0 / abs(sc.log_q))
    if dom.window is not None:
        w = dom.window
        return [(1, w.a_lo, w.a_hi, True, True)]
    # tau value at which |t| equals _ZERO_RHO times the smallest pole
    # magnitude (qq**0 = 1 for qq > 1, qq**top for qq < 1).
    tau_zero = math.log(_ZERO_RHO) / sc.log_q
    if sc.qq < 1.0:
        tau_zero += top
    if sc.qq > 1.0:
        if dom.branch == "right":
            if cap <= top:
                raise NumericalFailure(
                    f"the right branch lies beyond the float range at base {sc.qq!r}")
            return [(1, top, cap, True, False)]
        # left: t in (-inf, 1): negative axis first, then (0, 1).
        return [(-1, cap, tau_zero, False, False), (1, tau_zero, 0.0, False, True)]
    if dom.branch == "right":
        # qq < 1: t in (-inf, qq**top): negative axis, then (0, qq**top).
        return [(-1, -cap, tau_zero, False, False), (1, tau_zero, top, False, True)]
    return [(1, 0.0, -cap, True, False)]


@float_range
def arctic_curve(
    d: StartDensity,
    qq: float,
    branch: TDomain | str,
    *,
    n_samples: int = 400,
) -> Curve:
    """Sample one arc of the arctic curve along its t interval.

    ``branch`` is a TDomain from :func:`t_domains` or its label.  The
    sweep walks t = +-qq**tau over the interval, clustering samples
    geometrically near finite branch ends; parameter values where the
    point map is singular or leaves the float range are skipped and
    counted.  A branch without a single regular point raises
    NumericalFailure.
    """
    sc = _Scaled(d, qq)
    if isinstance(branch, str):
        matches = [dom for dom in t_domains(d, qq) if dom.branch == branch]
        if not matches:
            labels = ", ".join(dom.branch for dom in t_domains(d, qq))
            raise InvalidArgument(f"unknown branch {branch!r}; have: {labels}")
        dom = matches[0]
    else:
        dom = branch
    if n_samples < 2:
        raise InvalidArgument(f"n_samples must be at least 2, got {n_samples}")
    legs = _branch_legs(sc, dom)
    total_span = sum(abs(hi - lo) for _, lo, hi, _, _ in legs)
    # Every leg gets a fair floor: tau spans are a poor proxy for arc
    # length, and a short leg can carry a long visible piece of curve.
    floor = max(8, n_samples // (2 * len(legs)))
    t = np.concatenate([
        sign * sc.qq ** _leg_taus(lo, hi, max(floor, round(n_samples * abs(hi - lo) / total_span)),
                                  open_lo, open_hi)
        for sign, lo, hi, open_lo, open_hi in legs
        if hi != lo
    ])
    bx, by, regular = _tangency(sc, t, dom.sign_of_x)
    if not regular.any():
        raise NumericalFailure(f"no point of branch {dom.branch} is regular at base {sc.qq!r}")
    from .geometry import polyline_self_intersects

    crossing = polyline_self_intersects(np.column_stack([bx[regular], by[regular]]))
    return Curve(points=_points(t[regular], bx[regular], by[regular]), qq=sc.qq, branch=dom,
                 skipped=int(np.count_nonzero(~regular)), self_intersecting=crossing)


@float_range
def tangent_curve(d: StartDensity, qq: float, t: float, *, n_samples: int = 100) -> Curve:
    """The tangent line of the family at parameter t, in (X, Y) space.

    Solves x(t) qq**Y + ((1 - x(t)) / t) qq**X = 1 for Y on a grid of X
    from 0 to alpha_top + 1, keeping only the part where qq**Y is
    positive.  The arctic curve is the envelope of these lines as t
    sweeps a branch.
    """
    sc = _Scaled(d, qq)
    _, x, one_minus_x, _ = sc.terms(t, sc.classify(t)[1])
    if x == 0.0:
        raise SingularPoint(f"tangent line undefined at t={t!r}: x = 0")
    if n_samples < 2:
        raise InvalidArgument(f"n_samples must be at least 2, got {n_samples}")
    bx = (sc.top + 1.0) * np.arange(n_samples) / (n_samples - 1)
    coeff = one_minus_x / t
    with np.errstate(all="ignore"):
        qy = (1.0 - coeff * sc.qq**bx) / x
    keep = (qy > 0.0) & np.isfinite(qy)
    return Curve(points=_points(t, bx[keep], np.log(qy[keep]) / sc.log_q), qq=sc.qq)


@float_range
def geodesic(qq: float, xi: float, z: float, *, n_samples: int = 100) -> Curve:
    """Limit shape of the free path tail between (0, 1 + z) and (xi, 1).

    Satisfies (1 - qq**X)/(1 - qq**xi) + (1 - qq**(Y-1))/(1 - qq**z) = 1
    for X in [0, xi].  Degenerates to the straight segment as qq -> 1.
    """
    qq = _check_base(qq)
    if xi <= 0.0 or z <= 0.0:
        raise InvalidArgument(f"geodesic needs xi > 0 and z > 0, got xi={xi}, z={z}")
    if n_samples < 2:
        raise InvalidArgument(f"n_samples must be at least 2, got {n_samples}")
    log_q = math.log(qq)
    bx = xi * np.arange(n_samples) / (n_samples - 1)
    with np.errstate(all="ignore"):
        qy1 = 1.0 + math.expm1(z * log_q) * (1.0 - np.expm1(bx * log_q) / math.expm1(xi * log_q))
    keep = (qy1 > 0.0) & np.isfinite(qy1)
    return Curve(points=_points(math.nan, bx[keep], 1.0 + np.log(qy1[keep]) / log_q), qq=qq)


def _xi_of(sc: _Scaled, t: float, lx: float, x: float, one_minus_x: float) -> float:
    # qq**xi = t (qq x - 1) / (x - 1), stable via expm1 in log space.
    if x > 0.0:
        qx_minus_1 = math.expm1(sc.log_q + lx)
    else:
        qx_minus_1 = sc.qq * x - 1.0
    q_xi = t * qx_minus_1 / (-one_minus_x)
    if q_xi <= 0.0 or not math.isfinite(q_xi):
        raise InvalidArgument(
            f"no real exit height at t={t!r} (qq^xi = {q_xi!r})"
        )
    return math.log(q_xi) / sc.log_q


@float_range
def exit_params_right(d: StartDensity, qq: float, t: float) -> ScalingVars:
    """Saddle parameters (xi, z) of the right-branch tangency at t.

    xi lies in (0, alpha_top); z > 0 measures the free tail length.
    Raises InvalidArgument when t is not on the right branch.
    """
    sc = _Scaled(d, qq)
    label, sign, _ = sc.classify(t)
    if label != "right":
        raise InvalidArgument(f"t={t!r} is on branch {label!r}, not 'right'")
    lx, x, one_minus_x, _ = sc.terms(t, sign)
    xi = _xi_of(sc, t, lx, x, one_minus_x)
    q_z = (t - one_minus_x) / (t * sc.qq * x)
    if q_z <= 0.0 or not math.isfinite(q_z):
        raise InvalidArgument(f"no real tail length at t={t!r} (qq^z = {q_z!r})")
    return ScalingVars(xi=xi, z=math.log(q_z) / sc.log_q)


@float_range
def exit_params_left(d: StartDensity, qq: float, t: float) -> ScalingVars:
    """Saddle parameters (xi, z) of the left-branch tangency at t.

    xi lies in (1, alpha_top + 1): the left construction hangs the free
    tail from the dual corner.  Raises InvalidArgument off the branch.
    """
    sc = _Scaled(d, qq)
    label, sign, _ = sc.classify(t)
    if label != "left":
        raise InvalidArgument(f"t={t!r} is on branch {label!r}, not 'left'")
    lx, x, one_minus_x, _ = sc.terms(t, sign)
    xi = _xi_of(sc, t, lx, x, one_minus_x)
    denom = sc.qq * (t * x + sc.e_top * one_minus_x)
    if denom == 0.0:
        raise InvalidArgument(f"no real tail length at t={t!r} (degenerate)")
    q_z = t / denom
    if q_z <= 0.0 or not math.isfinite(q_z):
        raise InvalidArgument(f"no real tail length at t={t!r} (qq^z = {q_z!r})")
    return ScalingVars(xi=xi, z=math.log(q_z) / sc.log_q)
