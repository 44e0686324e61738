"""Per-layer size ladders, run once at the end of a traced run.

A scaling wall shows as a curve over problem size rather than one number.
Each ladder belongs to the workload whose layer it measures and calls the
package functions directly, with the trace wrappers removed.
"""

from __future__ import annotations

import math
import time
import tracemalloc

import qpaths.exact as exact
import qpaths.geometry as geometry
import qpaths.sampler as sampler
from qpaths.exact import StartSequence

from workloads import base_root, even_starts

# A rung slower than this ends the ladder; later rungs would only be slower.
_RUNG_BUDGET_S = 10.0
# Skip a geometry rung whose traced peak, extrapolated as m^2 from the
# previous rung, would exceed this.
_MEMORY_BUDGET_MB = 1536.0


def partition_det_ladder() -> dict:
    out = {}
    for n in (6, 8, 10, 12):
        seq = StartSequence(even_starts(n))
        t0 = time.perf_counter()
        exact.partition_det(seq)
        elapsed = time.perf_counter() - t0
        out[f"ladder.partition_det.n{n}_s"] = elapsed
        out["ladder.partition_det.last_n"] = n
        if elapsed > _RUNG_BUDGET_S:
            break
    return out


def run_chain_ladder(sweeps: int = 500) -> dict:
    out = {}
    for n in (5, 10, 20):
        seq = StartSequence(even_starts(n))
        t0 = time.perf_counter()
        result = sampler.run_chain(seq, base_root(3, n), sweeps, 1, burn_in=0)
        out[f"ladder.run_chain.n{n}_proposals_per_s"] = result.proposals / (time.perf_counter() - t0)
    return out


def self_intersects_ladder() -> dict:
    out = {}
    prev = None
    for m in (500, 1000, 2000, 4000):
        if prev is not None and prev[1] * (m / prev[0]) ** 2 > _MEMORY_BUDGET_MB:
            break
        # An opening spiral: smooth, free of self-crossings, so the scan
        # inspects every segment pair.
        pts = []
        for i in range(m):
            th = 1.5 * math.pi * i / (m - 1)
            pts.append(((1.0 + th) * math.cos(th), (1.0 + th) * math.sin(th)))
        tracemalloc.start()
        t0 = time.perf_counter()
        try:
            geometry.polyline_self_intersects(pts)
            elapsed = time.perf_counter() - t0
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        out[f"ladder.self_intersects.m{m}_s"] = elapsed
        out[f"ladder.self_intersects.m{m}_peak_mb"] = peak
        prev = (m, peak)
        if elapsed > _RUNG_BUDGET_S:
            break
    return out


LADDERS = {
    "exact": partition_det_ladder,
    "sample": run_chain_ladder,
    "arctic": self_intersects_ladder,
}
