"""Heat-bath sampling of the weighted path ensemble from an exact start.

The chain state is the array of north-step abscissas: b[i][k] is the
column of the north step of path i from row k to row k + 1, for
1 <= i <= n and 0 <= k < i, stored flat in ``PathConfig.north_steps``
order. The area is sum(b), and non-intersection is a set of inequalities
between neighbouring sites, so site (i, k) may take any value in

    lo = max(b[i][k+1] or 0, (b[i-1][k-1] or a_{i-1}) + 1)
    hi = min(b[i][k-1] or a_i, b[i+1][k+1] - 1)

where a missing b[i+1][k+1] (on the top path) imposes nothing. A sweep
visits the sites in that order and redraws each from q**b truncated to
[lo, hi], by inverse CDF from one uniform. The update is monotone in the
state, so coupling from the past (Propp & Wilson, 1996) from the minimal
and maximal configurations gives an exact sample of q**area, and the
measured sweeps start from it.
"""

from __future__ import annotations

import math
import random
from array import array
from dataclasses import dataclass

import numpy as np

from .configs import (
    PathConfig,
    Vertex,
    max_area_abscissas,
    min_area_abscissas,
    paths_from_abscissas,
)
from .errors import InvalidArgument, NumericalFailure
from .exact import StartSequence, _check_weight_q

# Coupling from the past looks back at most this many sweeps.
CFTP_MAX_SWEEPS = 1 << 16


def _neighbours(seq: StartSequence) -> tuple[list[tuple[int, ...]], list[int]]:
    """Per site (site, lo1, lo2, hi1, hi2): indices into b + consts with
    lo = max(v[lo1], v[lo2] + 1) and hi = min(v[hi1], v[hi2] - 1)."""
    n, a = seq.n, seq.values
    size = n * (n + 1) // 2
    # Slots after the sites: 0, a_n + 1 (no bound above the top path), a_0 .. a_n.
    consts = [0, a[-1] + 1, *a]

    def site(i, k):
        return i * (i - 1) // 2 + k

    plan = [
        (
            site(i, k),
            site(i, k + 1) if k + 1 < i else size,
            site(i - 1, k - 1) if k else size + 1 + i,
            site(i, k - 1) if k else size + 2 + i,
            site(i + 1, k + 1) if i < n else size + 1,
        )
        for i in range(1, n + 1)
        for k in range(i)
    ]
    return plan, consts


def _sweep(v: list[int], plan, uniforms, rate: float, up: bool) -> int:
    """Heat-bath update of every planned site in order; returns how many moved.

    Each site is redrawn from q**b on [lo, hi] by inverse CDF from its
    uniform: j geometric steps of ratio exp(-rate), rate = |ln q| > 0,
    counted from the heavy end, up from lo or, when ``up`` (q > 1), down
    from hi, so no power of q can overflow. At fixed uniforms the draw is
    monotone in lo and hi, hence in the state.
    """
    # Plain comparisons instead of max()/min(): this loop is the sampler's cost.
    log1p, expm1 = math.log1p, math.expm1
    moved = 0
    for (s, lo1, lo2, hi1, hi2), u in zip(plan, uniforms):
        lo, bound = v[lo2] + 1, v[lo1]
        if bound > lo:
            lo = bound
        hi, bound = v[hi2] - 1, v[hi1]
        if bound < hi:
            hi = bound
        if lo < hi:
            m = hi - lo
            j = int(log1p(u * expm1(-(m + 1) * rate)) / -rate)
            if j > m:  # rounding at u -> 1
                j = m
            x = hi - j if up else lo + j
        else:
            x = lo
        if x != v[s]:
            v[s] = x
            moved += 1
    return moved


def _exact_start(bottom: list[int], top: list[int], plan, rate: float, up: bool, rng) -> list[int]:
    """Monotone coupling from the past between the extremal states.

    Looks back T = 1, 2, 4, ... sweeps. Epoch j covers sweeps
    [-2^j, -2^(j-1)) before time 0 (epoch 0 the last one) and regenerates
    its uniforms from its own seed, drawn once from rng, so every attempt
    reuses the randomness of the later sweeps. Returns the common state at
    time 0 once both chains agree there.
    """
    seeds: list[int] = []
    while True:
        seeds.append(rng.getrandbits(64))
        look_back = 1 << (len(seeds) - 1)
        if look_back > CFTP_MAX_SWEEPS:
            raise NumericalFailure(
                f"coupling from the past did not coalesce within {CFTP_MAX_SWEEPS} sweeps"
            )
        lower, upper = list(bottom), list(top)
        for j in range(len(seeds) - 1, -1, -1):
            uniform = random.Random(seeds[j]).random
            for _ in range(1 << max(j - 1, 0)):
                us = [uniform() for _ in plan]
                _sweep(lower, plan, us, rate, up)
                _sweep(upper, plan, us, rate, up)
        if lower == upper:
            return lower


@dataclass
class DensityField:
    """North-step occupancy accumulated over recorded sweeps."""

    grid: np.ndarray
    samples: int

    def rows(self):
        """Iterate (x, y, count) over every nonzero cell, row-major."""
        xs, ys = np.nonzero(self.grid)
        return zip(xs.tolist(), ys.tolist(), self.grid[xs, ys].tolist())


@dataclass
class ChainResult:
    """Summary of one heat-bath run."""

    final: PathConfig
    density: DensityField
    area_series: array
    acceptance_rate: float
    proposals: int
    sweeps: int
    burn_in: int
    seed: int
    config_counts: dict[tuple[tuple[Vertex, ...], ...], int] | None = None


def run_chain(
    seq: StartSequence,
    q: float,
    sweeps: int,
    seed: int,
    *,
    burn_in: int = 0,
    track_configs: bool = False,
) -> ChainResult:
    """Sample q**area exactly, then accumulate the north-step density.

    Coupling from the past gives an exact sample; burn_in sweeps after it
    are discarded, and the states of the next sweeps are recorded (with
    burn_in 0 the first is the exact sample itself). A sweep updates once
    each site that can move, i.e. whose value differs between the extremal
    states.
    ``proposals`` counts the site updates of the burn_in + sweeps - 1
    sweeps after the exact start (the coupling phase is not counted), and
    ``acceptance_rate`` is the share of them that moved their site.
    Identical seeds give identical runs.
    """
    q = float(q)
    _check_weight_q(q)
    if sweeps < 1:
        raise InvalidArgument("sweeps must be >= 1")
    if burn_in < 0:
        raise InvalidArgument("burn_in must be >= 0")
    plan, consts = _neighbours(seq)
    bottom = min_area_abscissas(seq) + consts
    top = max_area_abscissas(seq) + consts
    plan = [p for p in plan if bottom[p[0]] != top[p[0]]]
    rate, up = abs(math.log(q)), q > 1.0
    rng = random.Random(seed)
    v = _exact_start(bottom, top, plan, rate, up, rng)

    n, width = seq.n, seq.top + 1
    offsets = [k * width for i in range(1, n + 1) for k in range(i)]
    cells = [0] * (width * max(n, 1))
    base = sum(consts)
    areas = array("q")
    configs: dict[tuple[int, ...], int] | None = {} if track_configs else None
    rand = rng.random
    moved = 0
    for t in range(burn_in + sweeps):
        if t:
            moved += _sweep(v, plan, iter(rand, None), rate, up)
        if t < burn_in:
            continue
        areas.append(sum(v) - base)
        for offset, x in zip(offsets, v):
            cells[offset + x] += 1
        if configs is not None:
            key = tuple(v)
            configs[key] = configs.get(key, 0) + 1

    sites = len(offsets)
    grid = np.array(cells, dtype=np.int64).reshape(max(n, 1), width).T
    density = DensityField(grid, len(areas))
    proposals = (burn_in + sweeps - 1) * len(plan)
    acceptance = moved / proposals if proposals else 0.0
    config_counts = None
    if configs is not None:
        config_counts = {paths_from_abscissas(seq, key[:sites]): c for key, c in configs.items()}
    final = PathConfig(seq, paths_from_abscissas(seq, v[:sites]), "first")
    return ChainResult(
        final, density, areas, acceptance, proposals, sweeps, burn_in, seed, config_counts
    )
