"""Arctic curves of the scaled path model.

Everything here lives in the scaling regime: a start density ``d``
(see :mod:`qpaths.profile`) together with a base ``qq > 0`` (the limit
of ``q**n``) determines the rescaled free energy, and the arctic curve
is traced as the envelope of the tangent-line family

    x(t) * qq**Y + ((1 - x(t)) / t) * qq**X = 1,

where ``t`` parametrizes admissible tangency points and

    x(t) = qq**(-t * integral_0^1 du / (t - qq**alpha(u)))

has a closed product form for piecewise-linear densities.  The map from
``t`` to the tangency point is

    qq**X = t**2 x'(t) / D,    qq**Y = (t x'(t) + 1 - x(t)) / D,
    D = t x'(t) + x(t) (1 - x(t)).

Each maximal admissible ``t`` interval (branch) yields one arc: the
right and left outer arcs plus one arc per density window, where the
paths freeze into gap or filled phases.  All evaluations are done in
log space so extreme bases such as ``qq = 1e-4`` stay well conditioned.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

from .errors import InvalidArgument, NumericalFailure, SingularPoint
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


def _float_range(fn):
    """Report an ArithmeticError (such as a float overflow) as NumericalFailure."""

    @functools.wraps(fn)
    def checked(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ArithmeticError as exc:
            raise NumericalFailure(f"{fn.__name__} left the float range ({exc})") from exc

    return checked


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
        self.parts = []
        for el in d.segment_elements():
            self.parts.append(
                (
                    el.a_lo,
                    el.a_hi,
                    1.0 / el.p,
                    self.qq**el.a_lo,
                    self.qq**el.a_hi,
                )
            )
        self.top = d.alpha_top
        self.e_top = self.qq**self.top
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

    # -- x(t) and its derivative ----------------------------------------

    def log_abs_x(self, t: float) -> float:
        total = -self.log_q
        for _, _, inv_p, e_lo, e_hi in self.parts:
            total += inv_p * (math.log(abs(t - e_hi)) - math.log(abs(t - e_lo)))
        return total

    def x_parts(self, t: float) -> tuple[int, float, float, float, float]:
        """Return (sign, log|x|, x, 1 - x, x'/x) at admissible t."""
        _, sign, _ = self.classify(t)
        lx = self.log_abs_x(t)
        x = sign * math.exp(lx)
        if sign > 0:
            one_minus_x = -math.expm1(lx)
        else:
            one_minus_x = 1.0 + math.exp(lx)
        ratio = 0.0
        for _, _, inv_p, e_lo, e_hi in self.parts:
            ratio += inv_p * (e_hi - e_lo) / ((t - e_hi) * (t - e_lo))
        return sign, lx, x, one_minus_x, ratio


@_float_range
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


@_float_range
def x_of_t(d: StartDensity, qq: float, t: float, *, method: str = "closed") -> float:
    """The tangent-family weight x(t) at an admissible parameter value.

    ``method="closed"`` uses the exact product form for piecewise-linear
    densities.  ``method="quadrature"`` integrates the defining exponent
    numerically (principal value inside filled windows, where the sign
    comes from the analytic continuation across the support).
    """
    sc = _Scaled(d, qq)
    if method == "closed":
        return sc.x_parts(t)[2]
    if method != "quadrature":
        raise InvalidArgument(f"unknown method {method!r}")
    _, sign, window = sc.classify(t)
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


@_float_range
def dx_dt(d: StartDensity, qq: float, t: float) -> float:
    """Derivative x'(t) of the closed-form tangent-family weight."""
    sc = _Scaled(d, qq)
    _, _, x, _, ratio = sc.x_parts(t)
    return x * ratio


def _point(sc: _Scaled, t: float) -> tuple[float, float]:
    sign, lx, x, one_minus_x, ratio = sc.x_parts(t)
    xp = x * ratio
    a = t * xp
    b = x * one_minus_x
    denom = a + b
    scale = abs(a) + abs(b)
    if denom == 0.0 or abs(denom) < _SINGULAR_REL * scale:
        raise SingularPoint(f"envelope denominator vanishes at t={t!r}")
    qx = t * a / denom
    qy = (a + one_minus_x) / denom
    if qx <= 0.0 or qy <= 0.0 or not (math.isfinite(qx) and math.isfinite(qy)):
        raise SingularPoint(
            f"tangency point undefined at t={t!r} (qq^X={qx!r}, qq^Y={qy!r})"
        )
    return math.log(qx) / sc.log_q, math.log(qy) / sc.log_q


@_float_range
def arctic_point(d: StartDensity, qq: float, t: float) -> tuple[float, float]:
    """The (X, Y) tangency point of the arctic curve at parameter t.

    Raises SingularPoint where the envelope map degenerates (for
    example t = 0, where x = 1 exactly) and InvalidArgument for t
    outside every branch.
    """
    return _point(_Scaled(d, qq), t)


def _leg_taus(lo: float, hi: float, count: int, open_lo: bool, open_hi: bool) -> list[float]:
    """Affine grid on [lo, hi] with geometric refinement toward open ends.

    Open endpoints are branch boundaries where the curve closes onto a
    limiting point; a geometric ladder (down to 1e-9 of the span) makes
    the sampled arc approach it closely without ever evaluating on the
    boundary itself.
    """
    count = max(count, 4)
    span = hi - lo
    pts = {lo + span * i / (count - 1) for i in range(count)}
    if open_lo:
        pts.discard(lo)
    if open_hi:
        pts.discard(hi)
    ladder = [10.0 ** (-k) for k in range(1, 10)]
    if open_lo:
        pts.update(lo + span * r for r in ladder)
    if open_hi:
        pts.update(hi - span * r for r in ladder)
    return sorted(pts)


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
            return [(1, top, max(cap, top + 1.0), True, False)]
        # left: t in (-inf, 1): negative axis first, then (0, 1).
        return [
            (-1, cap, tau_zero, False, False),
            (1, tau_zero, 0.0, False, True),
        ]
    if dom.branch == "right":
        # qq < 1: t in (-inf, qq**top): negative axis, then (0, qq**top).
        return [
            (-1, -cap, tau_zero, False, False),
            (1, tau_zero, top, False, True),
        ]
    return [(1, 0.0, -cap, True, False)]


@_float_range
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
    counted.
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
    points = []
    skipped = 0
    for sign, lo, hi, open_lo, open_hi in legs:
        if hi == lo:
            continue
        count = max(floor, int(round(n_samples * abs(hi - lo) / total_span)))
        if hi < lo:
            taus = _leg_taus(hi, lo, count, open_hi, open_lo)[::-1]
        else:
            taus = _leg_taus(lo, hi, count, open_lo, open_hi)
        for tau in taus:
            try:
                t = sign * sc.qq**tau
                points.append((t, *_point(sc, t)))
            except (SingularPoint, InvalidArgument, ArithmeticError):
                skipped += 1
    from .geometry import polyline_self_intersects

    crossing = polyline_self_intersects([(x_, y_) for _, x_, y_ in points])
    return Curve(points=points, qq=sc.qq, branch=dom, skipped=skipped,
                 self_intersecting=crossing)


@_float_range
def tangent_curve(
    d: StartDensity,
    qq: float,
    t: float,
    *,
    n_samples: int = 100,
    x_max: Optional[float] = None,
) -> Curve:
    """The tangent line of the family at parameter t, in (X, Y) space.

    Solves x(t) qq**Y + ((1 - x(t)) / t) qq**X = 1 for Y on an X grid,
    keeping only the part where qq**Y is positive.  The arctic curve is
    the envelope of these lines as t sweeps a branch.
    """
    sc = _Scaled(d, qq)
    sign, lx, x, one_minus_x, _ = sc.x_parts(t)
    if x == 0.0:
        raise SingularPoint(f"tangent line undefined at t={t!r}: x = 0")
    if x_max is None:
        x_max = sc.top + 1.0
    if n_samples < 2:
        raise InvalidArgument(f"n_samples must be at least 2, got {n_samples}")
    coeff = one_minus_x / t
    points = []
    for i in range(n_samples):
        bx = x_max * i / (n_samples - 1)
        qy = (1.0 - coeff * sc.qq**bx) / x
        if qy > 0.0 and math.isfinite(qy):
            points.append((t, bx, math.log(qy) / sc.log_q))
    return Curve(points=points, qq=sc.qq, branch=None)


@_float_range
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
    den_xi = -math.expm1(xi * log_q)
    fac_z = -math.expm1(z * log_q)
    points = []
    for i in range(n_samples):
        bx = xi * i / (n_samples - 1)
        frac = -math.expm1(bx * log_q) / den_xi
        qy1 = 1.0 - fac_z * (1.0 - frac)
        if qy1 <= 0.0 or not math.isfinite(qy1):
            continue
        points.append((math.nan, bx, 1.0 + math.log(qy1) / log_q))
    return Curve(points=points, qq=qq, branch=None)


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


@_float_range
def exit_params_right(d: StartDensity, qq: float, t: float) -> ScalingVars:
    """Saddle parameters (xi, z) of the right-branch tangency at t.

    xi lies in (0, alpha_top); z > 0 measures the free tail length.
    Raises InvalidArgument when t is not on the right branch.
    """
    sc = _Scaled(d, qq)
    label, _, _ = sc.classify(t)
    if label != "right":
        raise InvalidArgument(f"t={t!r} is on branch {label!r}, not 'right'")
    _, lx, x, one_minus_x, _ = sc.x_parts(t)
    xi = _xi_of(sc, t, lx, x, one_minus_x)
    q_z = (t - one_minus_x) / (t * sc.qq * x)
    if q_z <= 0.0 or not math.isfinite(q_z):
        raise InvalidArgument(f"no real tail length at t={t!r} (qq^z = {q_z!r})")
    return ScalingVars(xi=xi, z=math.log(q_z) / sc.log_q)


@_float_range
def exit_params_left(d: StartDensity, qq: float, t: float) -> ScalingVars:
    """Saddle parameters (xi, z) of the left-branch tangency at t.

    xi lies in (1, alpha_top + 1): the left construction hangs the free
    tail from the dual corner.  Raises InvalidArgument off the branch.
    """
    sc = _Scaled(d, qq)
    label, _, _ = sc.classify(t)
    if label != "left":
        raise InvalidArgument(f"t={t!r} is on branch {label!r}, not 'left'")
    _, lx, x, one_minus_x, _ = sc.x_parts(t)
    xi = _xi_of(sc, t, lx, x, one_minus_x)
    denom = sc.qq * (t * x + sc.e_top * one_minus_x)
    if denom == 0.0:
        raise InvalidArgument(f"no real tail length at t={t!r} (degenerate)")
    q_z = t / denom
    if q_z <= 0.0 or not math.isfinite(q_z):
        raise InvalidArgument(f"no real tail length at t={t!r} (qq^z = {q_z!r})")
    return ScalingVars(xi=xi, z=math.log(q_z) / sc.log_q)
