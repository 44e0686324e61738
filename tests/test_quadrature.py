"""Adaptive quadrature engine against closed forms and scipy."""

import inspect
import itertools
import math

import pytest
import scipy.integrate

from qpaths import quadrature
from qpaths.errors import InvalidArgument, NumericalFailure
from qpaths.quadrature import integrate


def test_polynomials_exact():
    for k in range(6):
        got = integrate(lambda x, k=k: x**k, 0.0, 1.0)
        assert got == pytest.approx(1.0 / (k + 1), rel=1e-13)


def test_elementary_closed_forms():
    assert integrate(math.exp, 0.0, 1.0) == pytest.approx(math.e - 1.0, rel=1e-13)
    assert integrate(math.sin, 0.0, math.pi) == pytest.approx(2.0, rel=1e-12)
    assert integrate(lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0) == pytest.approx(
        math.pi / 4.0, rel=1e-13
    )


def test_reversed_interval_changes_sign():
    forward = integrate(math.exp, 0.0, 1.0)
    assert integrate(math.exp, 1.0, 0.0) == pytest.approx(-forward, rel=1e-13)
    assert integrate(math.exp, 0.5, 0.5) == 0.0


def test_against_scipy_on_oscillatory_integrand():
    f = lambda x: math.cos(40.0 * x) * math.exp(-x)
    expected, _ = scipy.integrate.quad(f, 0.0, 2.0, limit=200)
    assert integrate(f, 0.0, 2.0) == pytest.approx(expected, rel=1e-11, abs=1e-13)


def test_integrable_endpoint_singularity():
    # 1/sqrt(x) integrates to 2 despite the endpoint blow-up.
    got = integrate(lambda x: 1.0 / math.sqrt(x) if x > 0 else 0.0, 0.0, 1.0)
    assert got == pytest.approx(2.0, rel=1e-7)


def test_nonfinite_integrand_rejected():
    with pytest.raises(NumericalFailure):
        integrate(lambda x: math.inf if 0.4 < x < 0.6 else 1.0, 0.0, 1.0)


def test_real_values_only():
    assert "max_depth" not in inspect.signature(integrate).parameters
    for f, a, b in ((lambda x: 1, 0.0, 1.0), (math.exp, 1.0, 0.0), (math.exp, 0.5, 0.5)):
        assert type(integrate(f, a, b)) is float
    with pytest.raises(TypeError):
        integrate(lambda x: 1j * x, 0.0, 1.0)


def test_missed_tolerance_raises(monkeypatch):
    # Rounding-level noise never meets a 1e-10 tolerance: the call raises
    # at the panel cap instead of returning its last estimate.
    with pytest.raises(NumericalFailure, match="misses its tolerance"):
        integrate(lambda x: math.sin(1e20 * x), 0.0, 1.0)
    # A panel one ulp wide cannot be halved; an integrand that answers
    # differently on every call keeps its error estimate above zero.
    calls = itertools.count()
    with pytest.raises(NumericalFailure, match="cannot be split"):
        integrate(lambda x: next(calls), 1.0, math.nextafter(1.0, 2.0), abs_tol=0.0)
    # The 1/sqrt(x) endpoint singularity needs more than 8 panels.
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 8)
    with pytest.raises(NumericalFailure, match="after 8 panels"):
        integrate(lambda x: 1.0 / math.sqrt(x) if x > 0 else 0.0, 0.0, 1.0)


def test_invalid_interval():
    with pytest.raises(InvalidArgument):
        integrate(math.exp, 0.0, math.inf)
