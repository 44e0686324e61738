"""Globally adaptive Gauss-Legendre integration.

Every panel carries the sum of its two Gauss-Legendre halves and, as its
error estimate, how far that sum moved from the whole-panel rule.  The
panel with the largest estimate is bisected until the estimates summed
over all panels meet the tolerance (the global strategy of QUADPACK).
Kinks and singularities are the caller's to handle.  The one caller in
the package is the quadrature route of x(t) in :mod:`qpaths.curves`,
the independent check of its closed product form (the actions of
:mod:`qpaths.actions` have closed forms and call no quadrature).  It
integrates one linear element of the start density at a time, so no
panel straddles a kink or a jump, and takes the pole of t/(t - qq**a) in
closed form, so only bounded remainders reach this rule.  A tolerance
that cannot be met raises NumericalFailure; no estimate is returned
short of it.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable

from .errors import InvalidArgument, NumericalFailure

_ORDER = 15
# Nonnegative nodes of the 15-point Gauss-Legendre rule on [-1, 1] and their
# weights, as numpy.polynomial.legendre.leggauss(15) gives them (the rule is
# symmetric).  Kept literal so that importing the package runs no LAPACK.
_HALF_NODES = (0.0, 0.20119409399743451, 0.3941513470775634, 0.5709721726085388,
               0.7244177313601701, 0.8482065834104272, 0.9372733924007058, 0.9879925180204854)
_HALF_WEIGHTS = (0.2025782419255613, 0.1984314853271116, 0.1861610000155622, 0.16626920581699398,
                 0.13957067792615444, 0.10715922046717141, 0.0703660474881084, 0.030753241996117203)
_NODES = tuple(-x for x in _HALF_NODES[:0:-1]) + _HALF_NODES
_WEIGHTS = _HALF_WEIGHTS[:0:-1] + _HALF_WEIGHTS
# Bound on the panels of one call.  Converging calls hold at most 54
# panels in the test suite (the 1/sqrt(x) endpoint test; 13 outside the
# quadrature tests, in x(t)'s quadrature route) and 1 in the benchmark
# (tangent seeds 1 and 101-105, 44 calls a pass; the other workloads make
# no call); a call still short of its tolerance at 1000 panels (about
# 30 000 integrand calls) is chasing rounding noise.
_MAX_PANELS = 1000


def _rule(f: Callable[[float], float], a: float, b: float) -> float:
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    total = 0.0
    for x, w in zip(_NODES, _WEIGHTS):
        total += w * f(mid + half * x)
    return half * total


def _panel(f: Callable[[float], float], lo: float, hi: float, whole: float):
    """Heap entry (-error, lo, hi, left half, right half) of [lo, hi]."""
    mid = 0.5 * (lo + hi)
    left = _rule(f, lo, mid)
    right = _rule(f, mid, hi)
    if not math.isfinite(left + right):
        raise NumericalFailure(f"integrand is not finite on [{lo:g}, {hi:g}]")
    return -abs(left + right - whole), lo, hi, left, right


def integrate(
    f: Callable[[float], float],
    a: float,
    b: float,
    *,
    rel_tol: float = 1e-10,
    abs_tol: float = 1e-14,
) -> float:
    """Integral of f over [a, b] to max(abs_tol, rel_tol * |integral|).

    Raises NumericalFailure when the estimated error cannot be brought
    under the tolerance within _MAX_PANELS panels.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise InvalidArgument("integration endpoints must be finite")
    if a == b:
        return 0.0
    if b < a:
        return -integrate(f, b, a, rel_tol=rel_tol, abs_tol=abs_tol)
    heap = [_panel(f, a, b, _rule(f, a, b))]
    while True:
        total = math.fsum(left + right for _, _, _, left, right in heap)
        error = -math.fsum(neg_err for neg_err, *_ in heap)
        if error <= max(abs_tol, rel_tol * abs(total)):
            return total
        if len(heap) >= _MAX_PANELS:
            raise NumericalFailure(
                f"integral over [{a:g}, {b:g}] misses its tolerance after "
                f"{len(heap)} panels (estimated error {error:.3g})"
            )
        _, lo, hi, left, right = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            raise NumericalFailure(f"panel [{lo!r}, {hi!r}] cannot be split further")
        heapq.heappush(heap, _panel(f, lo, mid, left))
        heapq.heappush(heap, _panel(f, mid, hi, right))

