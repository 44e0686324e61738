"""Rescaled free-energy actions of the scaling regime.

The one-point function of the exit position concentrates, for large
system size, around the minimizer of an action.  Its bulk part

    S_bulk(t, xi) = (xi - 1/2) ln qq
                    + int_0^1 ln((t qq**(u - xi) - 1)/(t - qq**alpha(u))) du

carries the interaction with the start density, while the free parts

    S_free(xi, z)      = int_0^xi ln((qq**(u+z) - 1)/(qq**u - 1)) du
    S_free_dual(xi, z) = z (xi + z/2) ln qq
                         + int_0^(alpha(1)+1-xi) ln(same integrand) du

weigh the free tail of the exit path in the right and left tangent
constructions.  Saddle residual helpers expose the closed-form first
derivatives so the stationarity of a tangency point can be checked
without numerical differentiation.
"""

from __future__ import annotations

import math

from .curves import _check_base
from .errors import InvalidArgument, float_range
from .profile import StartDensity
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


def _log_ratio(num: float, den: float, what: str) -> float:
    if num == 0.0 or den == 0.0 or (num > 0.0) != (den > 0.0):
        raise InvalidArgument(
            f"{what}: log argument not positive (numerator {num!r}, denominator {den!r})"
        )
    return math.log(abs(num)) - math.log(abs(den))


@float_range
def action_bulk(d: StartDensity, qq: float, t: float, xi: float) -> float:
    """Bulk action at tangency parameter t and exit height xi.

    Defined for t on the outer branches, where the integrand's log
    argument keeps one sign across u in [0, 1].  The quadrature splits
    at the breakpoints of the start density.
    """
    qq = _check_base(qq)
    log_q = math.log(qq)
    if t == 0.0:
        raise InvalidArgument("bulk action undefined at t = 0")

    def integrand(u: float) -> float:
        num = t * qq ** (u - xi) - 1.0
        den = t - qq ** d.alpha(u)
        return _log_ratio(num, den, "bulk action")

    val = integrate(
        integrand,
        0.0,
        1.0,
        rel_tol=_REL_TOL,
        abs_tol=_ABS_TOL,
        breakpoints=d.breakpoints_u(),
    )
    return (xi - 0.5) * log_q + val


def _free_integrand(log_q: float, z: float):
    def integrand(u: float) -> float:
        num = math.expm1((u + z) * log_q)
        den = math.expm1(u * log_q)
        # Both factors share the sign of log_q times their exponent;
        # for u > 0, z > -u the ratio is positive on either side of 1.
        return math.log(abs(num)) - math.log(abs(den))

    return integrand


@float_range
def action_free(qq: float, xi: float, z: float) -> float:
    """Free-tail action of the right construction.

    The integrand has an integrable log singularity at u = 0; the
    adaptive quadrature resolves it without special casing.
    """
    qq = _check_base(qq)
    if xi <= 0.0 or z <= 0.0:
        raise InvalidArgument(f"need xi > 0 and z > 0, got xi={xi}, z={z}")
    log_q = math.log(qq)
    return integrate(
        _free_integrand(log_q, z), 0.0, xi, rel_tol=_REL_TOL, abs_tol=_ABS_TOL
    )


@float_range
def action_free_dual(d: StartDensity, qq: float, xi: float, z: float) -> float:
    """Free-tail action of the left (dual) construction.

    Integrates over the dual height span alpha(1) + 1 - xi and adds the
    explicit area exchange term z (xi + z/2) ln qq.
    """
    qq = _check_base(qq)
    if z <= 0.0:
        raise InvalidArgument(f"need z > 0, got z={z}")
    span = d.alpha_top + 1.0 - xi
    if span <= 0.0:
        raise InvalidArgument(
            f"need xi < alpha(1) + 1 = {d.alpha_top + 1.0}, got xi={xi}"
        )
    log_q = math.log(qq)
    val = integrate(
        _free_integrand(log_q, z), 0.0, span, rel_tol=_REL_TOL, abs_tol=_ABS_TOL
    )
    return z * (xi + z / 2.0) * log_q + val


def _bulk_dt_integral(d: StartDensity, qq: float, t: float, log_q: float) -> float:
    """Closed form of int_0^1 du / (t - qq**alpha(u)) for piecewise-linear d."""
    total = 0.0
    for el in d.segment_elements():
        e_lo = qq**el.a_lo
        e_hi = qq**el.a_hi
        num = e_hi / (t - e_hi)
        den = e_lo / (t - e_lo)
        total += (
            _log_ratio(num, den, "bulk derivative")
            / (el.p * t * log_q)
        )
    return total


@float_range
def saddle_residual_t(d: StartDensity, qq: float, t: float, xi: float) -> float:
    """Closed-form partial derivative of the bulk action in t.

    Vanishes when xi is the exit height attached to the tangency at t.
    """
    qq = _check_base(qq)
    log_q = math.log(qq)
    q_xi = qq**xi
    boundary = _log_ratio(t * qq - q_xi, t - q_xi, "t residual") / (t * log_q)
    return boundary - _bulk_dt_integral(d, qq, t, log_q)


def _xi_integral_term(qq: float, t: float, xi: float, log_q: float) -> float:
    # t ln(qq) int_0^1 qq**(u-xi) / (t qq**(u-xi) - 1) du, in closed form.
    num = t * qq ** (1.0 - xi) - 1.0
    den = t * qq ** (-xi) - 1.0
    return _log_ratio(num, den, "xi residual")


@float_range
def saddle_residual_xi_right(
    d: StartDensity, qq: float, t: float, xi: float, z: float
) -> float:
    """Closed-form derivative in xi of bulk plus free action (right)."""
    qq = _check_base(qq)
    log_q = math.log(qq)
    own = _log_ratio(
        qq * math.expm1((xi + z) * log_q), math.expm1(xi * log_q), "xi residual"
    )
    return own - _xi_integral_term(qq, t, xi, log_q)


@float_range
def saddle_residual_xi_left(
    d: StartDensity, qq: float, t: float, xi: float, z: float
) -> float:
    """Closed-form derivative in xi of bulk plus dual free action (left)."""
    qq = _check_base(qq)
    log_q = math.log(qq)
    span = d.alpha_top + 1.0 - xi
    own = _log_ratio(
        qq ** (z + 1.0) * math.expm1(span * log_q),
        math.expm1((span + z) * log_q),
        "xi residual",
    )
    return own - _xi_integral_term(qq, t, xi, log_q)
