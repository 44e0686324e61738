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
constructions.  The free integrand has a log singularity at u = 0.
Near it, ln|expm1(y)| = ln|y| + ln(expm1(y)/y): the ln|y| terms integrate
in closed form and the smooth remainder goes to the quadrature; past
u = 4/|ln qq| the integrand is a fast series in e**(-u |ln qq|), summed
term by term.  Saddle residual helpers expose the closed-form first
derivatives so the stationarity of a tangency point can be checked
without numerical differentiation.  Every factor t - qq**b goes through
the pole kernel of :mod:`qpaths.curves`, so the actions and residuals
stay finite where qq**b leaves the doubles.
"""

from __future__ import annotations

import math

from .curves import _log_pole, _log_shift, _Scaled
from .errors import InvalidArgument, float_range, float_value, real_value
from .profile import StartDensity, _check_base
from .quadrature import integrate

__all__ = [
    "action_bulk",
    "action_free",
    "action_free_dual",
    "saddle_residual_t",
    "saddle_residual_xi_right",
    "saddle_residual_xi_left",
]

_ABS_TOL = 1e-10
_REL_TOL = 1e-12
# Cut, in units of 1/|ln qq|, past which the free-tail integrand is summed
# as a series; e**(-_FAR * _FAR_TERMS) is below the double epsilon.
_FAR = 4.0
_FAR_TERMS = 10


@float_range
def action_bulk(d: StartDensity, qq: float, t: float, xi: float) -> float:
    """Bulk action at tangency parameter t and exit height xi.

    Defined for t on the outer branches, where the integrand's log
    argument keeps one sign across u in [0, 1].  The quadrature runs one
    linear segment at a time (jumps have no u extent) over
    ln((t - qq**(xi - u)) / (t - qq**alpha(u))), the (xi - 1/2) ln qq term
    folded in.
    """
    qq = _check_base(qq)
    t, xi = real_value(t, "t"), real_value(xi, "xi")
    log_q = math.log(qq)
    if t == 0.0:
        raise InvalidArgument("bulk action undefined at t = 0")
    val = 0.0
    for el in d.segment_elements():

        def integrand(u: float, u_lo=el.u_lo, a_lo=el.a_lo, p=el.p) -> float:
            return _log_ratio(t, xi - u, a_lo + p * (u - u_lo), qq, log_q, "bulk action")

        val += integrate(integrand, el.u_lo, el.u_hi, rel_tol=_REL_TOL, abs_tol=_ABS_TOL)
    return float_value(val, "bulk action")


def _log_ratio(t: float, b: float, c: float, qq: float, log_q: float, what: str) -> float:
    """ln((t - qq**b) / (t - qq**c)) from the pole kernel of curves.

    Raises InvalidArgument where the two differences differ in sign or one
    of them vanishes.
    """
    num, num_above = _log_pole(t, b, qq, log_q)
    den, den_above = _log_pole(t, c, qq, log_q)
    value = num - den
    if num_above != den_above or not math.isfinite(value):
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


def _xlog1p(x: float, y: float) -> float:
    """x ln(1 + y/x) for x, y > 0, also where y/x overflows."""
    r = y / x
    return x * (math.log1p(r) if r < math.inf else math.log(y) - math.log(x))


def _free_integral(log_q: float, z: float, span: float) -> float:
    """int_0^span ln(expm1((u+z) log_q) / expm1(u log_q)) du, for z, span > 0.

    With l = |log_q| the integrand is z max(log_q, 0) + D(u), where
    D(u) = ln((1 - e**(-(u+z) l)) / (1 - e**(-u l))) >= 0 carries the log
    singularity at u = 0.  Up to the cut u = _FAR / l, write
    ln|expm1(y)| = ln|y| + ln(expm1(y)/y) for y = (u+z) log_q and
    y = u log_q.  The ln|y| terms integrate in closed form; the remainder,
    smooth on a scale of 1/l, goes to the quadrature as D(u) - ln(1 + z/u),
    a form that keeps its digits when z is far below u.  Past the cut,
    D(u) = sum_k e**(-k u l) (1 - e**(-k z l)) / k integrates term by term,
    with terms falling like e**(-k _FAR).  Carrying the split past the cut
    would cancel the closed term against the remainder (ten thousandfold at
    qq = 1e-300, span = 300, z = 5), and one long panel would meet the
    absolute tolerance while missing the decay on the scale 1/l.
    """
    ell = abs(log_q)
    tail = -math.expm1(-z * ell)
    cut = min(span, _FAR / ell)

    def remainder(u: float) -> float:
        ratio = tail * math.exp(-u * ell) / -math.expm1(-u * ell)
        return math.log1p(ratio) - math.log1p(z / u)

    # F(cut+z) - F(z) - F(cut) for F(s) = s (ln s + ln l - 1), whose
    # ln l - 1 parts cancel.
    val = _xlog1p(z, cut) + _xlog1p(cut, z)
    val += integrate(remainder, 0.0, cut, rel_tol=_REL_TOL, abs_tol=_ABS_TOL)
    if span > cut:
        far = (span - cut) * ell
        val += math.fsum(
            -math.expm1(-k * z * ell) * math.exp(-k * _FAR) * -math.expm1(-k * far)
            / (k * k * ell)
            for k in range(1, _FAR_TERMS + 1)
        )
    return z * span * max(log_q, 0.0) + val


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
    sc = _Scaled(d, qq)
    if t == 0.0 or sc.domain(t).window is not None:
        raise InvalidArgument(f"t={t!r} lies on no outer branch")
    boundary = _log_ratio(t, xi - 1.0, xi, sc.qq, sc.log_q, "t residual")
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
    return own - _log_ratio(t, xi - 1.0, xi, qq, log_q, "xi residual")


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
    return own - _log_ratio(t, xi - 1.0, xi, qq, log_q, "xi residual")
