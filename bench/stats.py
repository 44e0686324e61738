"""Small statistics shared by the benchmark processes (no qpaths import)."""

from __future__ import annotations

import statistics

# Sokal's automatic window: sum the autocorrelation up to the first lag M
# with M >= _WINDOW_C * tau(M). Fixed here so the estimate stays comparable
# when the sampler's algorithm changes.
_WINDOW_C = 5.0


def iat_sweeps(series) -> float:
    """Integrated autocorrelation time of a scalar series, in samples."""
    import numpy as np

    x = np.asarray(series, dtype=float)
    n = len(x)
    x = x - x.mean()
    if n < 2 or not np.any(x):
        return 1.0
    f = np.fft.rfft(x, 2 * n)
    acf = np.fft.irfft(f * np.conj(f))[:n]
    acf /= acf[0]
    taus = 2.0 * np.cumsum(acf) - 1.0
    lags = np.arange(n)
    stop = np.flatnonzero(lags >= _WINDOW_C * taus)
    m = int(stop[0]) if len(stop) else n - 1
    return max(float(taus[m]), 1.0)


def median(values) -> float:
    return float(statistics.median(values))


def spread(values) -> dict:
    """Median, quartiles and (Q3 - Q1) / median of a sample."""
    vals = sorted(float(v) for v in values)
    med = statistics.median(vals)
    if len(vals) >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    else:
        q1 = q3 = med
    return {
        "n": len(vals),
        "median": med,
        "q1": q1,
        "q3": q3,
        "iqr_over_median": (q3 - q1) / med if med else 0.0,
    }
