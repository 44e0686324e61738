"""Heat-bath sampling of the weighted path ensemble from an exact start.

A configuration is the array of north-step abscissas: b[i][k] is the
column of the north step of path i from row k to row k + 1, for
1 <= i <= n and 0 <= k < i, stored flat in ``PathConfig.north_steps``
order. The area is sum(b). The chain runs in interlacing coordinates
c[i][k] = b[i][k] - i (shift[s] = i for site s), where non-intersection
is a set of plain inequalities between neighbouring sites (as in an
interlacing array), so site (i, k) may take any value in

    lo = max(c[i][k+1] or -i, c[i-1][k-1] or a_{i-1} + 1 - i)
    hi = min(c[i][k-1] or a_i - i, c[i+1][k+1] or a_n - n)

and no bound carries a +1 or -1. The shift is the same on every state,
so it keeps the order coupling from the past needs, and an interval's
width hi - lo + 1 and every draw are those of b. A sweep visits the
sites in that order and redraws each from q**c (proportional to q**b)
truncated to [lo, hi], its conditional law (heat bath). Two draws give
that law:

- The coupling sweep (_sweep) takes j geometric steps of ratio
  exp(-|ln q|) from the heavy end of [lo, hi] by inverse CDF from one
  uniform. At fixed uniforms it is monotone in the state, so coupling
  from the past (Propp & Wilson, 1996) from the minimal and maximal
  configurations gives an exact sample of q**area, and the measured
  sweeps start from it.
- The forward chain after it needs only the law, not monotonicity. An
  untruncated geometric G = floor(-log1p(-u)/|ln q|), P(G = k)
  proportional to exp(-k |ln q|), is memoryless, so j = G mod
  (hi - lo + 1) has the truncated law on {0 .. hi - lo} (Devroye,
  Non-Uniform Random Variate Generation, 1986). The G are made by numpy
  a chunk of sweeps at a time from the run's own generator, and a site
  costs one modulo. -log1p(-u) <= 37 carries a relative error of about
  2**-53, so the law of the mod draw is off by up to about
  37 * 2**-53 / |ln q|, 3e-10 at |ln q| = 2**-16. Below that floor (q
  within about 1.5e-5 of 1) float G no longer resolves its low digits
  that well, and the forward chain keeps the coupling sweep.

The mod draw runs in a kernel (_kernel) that one run builds once, before
its first forward sweep: the sweep written out as straight-line Python,
compiled and executed. Every movable site is a local b<s>; every other
slot (the constants above and the sites whose extremal values agree) is
an integer literal; the direction (hi - G mod ..., for q > 1, or
lo + G mod ...) is fixed in the text. A loop takes the G of one sweep at
a time from zip(*[it] * m) and packs all n(n + 1)/2 sites into the next
int64 row of the chunk's block (one struct pack_into per sweep). The text is made only of fixed code, the names b<s> and g<k> with integer
indices, and int() of the start sequence's values and the closed-form
extremal arrays, so no input string reaches exec. A run of one sweep, or
a plan with no movable site, builds no kernel.

_states yields the north-step array after every sweep, in blocks of rows:
sweep 0 (the exact sample) alone, then one block per chunk of forward
sweeps, with the shift added back by one numpy add per block. run_chain reduces the blocks with
numpy: the areas (row sums) and the density (a bincount of row + cell
offsets) past burn_in, and the moves. Each site is updated once per
sweep, so it moved exactly when it differs from the row before.
"""

from __future__ import annotations

import math
import random
import struct
from array import array
from dataclasses import dataclass
from typing import Iterator

from .configs import max_area_abscissas, min_area_abscissas
from .errors import InvalidArgument, NumericalFailure, integer_value, real_value
from .exact import StartSequence, _weight

# Coupling from the past looks back at most this many sweeps.
CFTP_MAX_SWEEPS = 1 << 16
# The most sweeps one run records: `qpaths sample` at n = 10 holds about 8
# bytes a sweep (the area series, written to CSV from the array itself), so
# at the cap it stays under 1 GiB.
MAX_SWEEPS = 10_000_000
# The forward chain runs and records its sweeps in chunks of at most this
# many site values.
_CHUNK_VALUES = 1 << 12
# Below this |ln q| float G no longer resolves its low digits, and the
# forward chain keeps the inverse-CDF sweep (see the module docstring).
_MOD_RATE_FLOOR = 2.0**-16


def _neighbours(seq: StartSequence) -> tuple[list[tuple[int, ...]], list[int], list[int]]:
    """The chain's plan in interlacing coordinates c = b - shift, where
    shift[s] is the path index i of site s (see the module docstring).

    Per site (site, lo1, lo2, hi1, hi2): indices into c + consts with
    lo = max(v[lo1], v[lo2]) and hi = min(v[hi1], v[hi2]). Returns the
    plan, consts and shift.
    """
    n, a = seq.n, seq.values
    size = n * (n + 1) // 2
    # Slots after the sites: a_n - n (no bound above the top path), then per
    # path i its floor -i and its walls a_{i-1} + 1 - i and a_i - i.
    consts = [a[-1] - n]
    for i in range(1, n + 1):
        consts += [-i, a[i - 1] + 1 - i, a[i] - i]

    def site(i, k):
        return i * (i - 1) // 2 + k

    plan = [
        (
            site(i, k),
            site(i, k + 1) if k + 1 < i else size + 3 * i - 2,
            site(i - 1, k - 1) if k else size + 3 * i - 1,
            site(i, k - 1) if k else size + 3 * i,
            site(i + 1, k + 1) if i < n else size,
        )
        for i in range(1, n + 1)
        for k in range(i)
    ]
    return plan, consts, [i for i in range(1, n + 1) for _ in range(i)]


def _sweep(v: list[int], plan, uniforms, rate: float, up: bool) -> None:
    """Heat-bath update of every planned site in order, monotone in the state.

    Each site is redrawn from q**c on [lo, hi] by inverse CDF from its
    uniform: j geometric steps of ratio exp(-rate), rate = |ln q| > 0,
    counted from the heavy end, up from lo or, when ``up`` (q > 1), down
    from hi, so no power of q can overflow. At fixed uniforms the draw is
    monotone in lo and hi, hence in the state.
    """
    # Plain comparisons instead of max()/min(): this loop is the exact start's cost.
    log1p, expm1 = math.log1p, math.expm1
    for (s, lo1, lo2, hi1, hi2), u in zip(plan, uniforms):
        lo, bound = v[lo2], v[lo1]
        if bound > lo:
            lo = bound
        hi, bound = v[hi2], v[hi1]
        if bound < hi:
            hi = bound
        if lo < hi:
            m = hi - lo
            j = int(log1p(u * expm1(-(m + 1) * rate)) / -rate)
            if j > m:  # rounding at u -> 1
                j = m
            v[s] = hi - j if up else lo + j
        else:
            v[s] = lo


def _kernel(plan, v: list[int], sites: int, up: bool):
    """The forward chain's sweep, written out once for this plan and state.

    Returns ``sweeps(row, draws, out)``: from the sites ``row`` (a tuple
    of ``sites`` values in interlacing coordinates), one heat-bath sweep
    of the planned sites in order per ``len(plan)`` draws, each state
    after one written into the next row of ``out`` (a C-contiguous int64
    array); it returns the last state as a tuple. A site's lo is the
    larger of two slots and its hi the smaller, with no +1 or -1.
    Each draw is an untruncated geometric G, P(G = k) proportional to
    exp(-k |ln q|); G mod (hi - lo + 1) steps from the heavy end of
    [lo, hi] (down from hi when ``up``, q > 1) have the truncated law of
    _sweep, but are not monotone in the state. Every other slot of ``v``
    (the constants after the sites, and sites outside the plan) keeps
    its value, written into the code as an integer literal.
    """
    movable = {p[0] for p in plan}

    def slot(j: int) -> str:
        return f"b{j}" if j in movable else repr(int(v[j]))

    body = []
    for g, (s, lo1, lo2, hi1, hi2) in enumerate(plan):
        lo1, lo2, hi1, hi2 = map(slot, (lo1, lo2, hi1, hi2))
        draw = f"hi - g{g} % (hi - lo + 1)" if up else f"lo + g{g} % (hi - lo + 1)"
        body += [f"lo = {lo2}", f"if {lo1} > lo: lo = {lo1}",
                 f"hi = {hi2}", f"if {hi1} < hi: hi = {hi1}", f"b{s} = {draw}"]
    state = ", ".join(slot(j) for j in range(sites))
    source = "\n".join([
        "def sweeps(row, draws, out):",
        f"    {', '.join(f'b{j}' if j in movable else '_' for j in range(sites))}, = row",
        "    pack, at = PACK, 0",
        "    it = iter(draws)",
        f"    for {', '.join(f'g{g}' for g in range(len(plan)))}, in zip(*[it] * {len(plan)}):",
        *(f"        {line}" for line in body),
        f"        pack(out, at, {state})",
        f"        at += {8 * sites}",
        f"    return ({state},)",
    ])
    namespace: dict = {"PACK": struct.Struct(f"{sites}q").pack_into}
    exec(compile(source, "<sampler sweep kernel>", "exec"), namespace)
    return namespace["sweeps"]


def _uniforms(rng: random.Random, count: int) -> np.ndarray:
    """count uniforms on [0, 1), 53 random bits each, from rng's generator.

    The bit stream does not depend on how it is cut into calls, so neither
    does a run depend on its chunk size.
    """
    import numpy as np
    words = np.frombuffer(rng.getrandbits(64 * count).to_bytes(8 * count, "little"), np.uint64)
    return (words >> np.uint64(11)) * 2.0**-53


def _geometric(uniforms: np.ndarray, rate: float) -> list[int]:
    """G = floor(-log1p(-u) / rate) per uniform u: P(G = k) is proportional to exp(-k rate)."""
    import numpy as np
    return (-np.log1p(-uniforms) / rate).astype(np.int64).tolist()


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

    def rows(self) -> np.ndarray:
        """An (n, 3) int array of (x, y, count) over every nonzero cell, row-major."""
        import numpy as np
        xs, ys = np.nonzero(self.grid)
        return np.column_stack([xs, ys, self.grid[xs, ys]])


@dataclass
class ChainResult:
    """Summary of one heat-bath run."""

    density: DensityField
    area_series: array
    acceptance_rate: float
    proposals: int
    sweeps: int
    burn_in: int
    seed: int


def _states(seq: StartSequence, q: float, sweeps: int, seed: int) -> Iterator[np.ndarray]:
    """The north-step arrays of sweeps 0 .. sweeps - 1 at run_chain's checked
    q, in blocks of rows, each a new array (see the module docstring).

    Above the |ln q| floor the forward sweeps run in the kernel that
    _kernel builds for this run's plan, sites and direction, once and only
    when a forward sweep runs; each chunk feeds it the previous state and
    the chunk's G. Below the floor they run _sweep, and with no movable
    site the state repeats.
    """
    import numpy as np
    plan, consts, shift = _neighbours(seq)
    bottom = [x - i for x, i in zip(min_area_abscissas(seq), shift)] + consts
    top = [x - i for x, i in zip(max_area_abscissas(seq), shift)] + consts
    plan = [p for p in plan if bottom[p[0]] != top[p[0]]]
    rate, up = abs(math.log(q)), q > 1.0
    rng = random.Random(seed)
    v = _exact_start(bottom, top, plan, rate, up, rng)

    sites = seq.n * (seq.n + 1) // 2
    shift = np.array(shift, dtype=np.int64)
    row = tuple(v[:sites])
    yield np.array([row], dtype=np.int64) + shift
    rows = max(1, _CHUNK_VALUES // max(sites, 1))
    kernel = _kernel(plan, v, sites, up) if plan and sweeps > 1 and rate >= _MOD_RATE_FLOOR else None
    done = 1
    while done < sweeps:
        count = min(rows, sweeps - done)
        block = np.empty((count, sites), np.int64)
        if not plan:
            block[:] = row
        elif kernel is not None:
            row = kernel(row, _geometric(_uniforms(rng, count * len(plan)), rate), block)
        else:
            draws = iter(_uniforms(rng, count * len(plan)).tolist())
            for r in range(count):
                _sweep(v, plan, draws, rate, up)
                block[r] = v[:sites]
        block += shift
        yield block
        done += count


def run_chain(seq: StartSequence, q: float, sweeps: int, seed: int, *, burn_in: int = 0) -> ChainResult:
    """Sample q**area exactly, then accumulate the north-step density.

    Coupling from the past gives an exact sample; burn_in sweeps after it
    are discarded, and the states of the next sweeps are recorded (with
    burn_in 0 the first is the exact sample itself). A sweep updates once
    each site that can move, i.e. whose value differs between the extremal
    states.
    ``proposals`` counts the site updates of the burn_in + sweeps - 1
    sweeps after the exact start (the coupling phase is not counted), and
    ``acceptance_rate`` is the share of them that moved their site.
    Identical seeds give identical runs. The forward sweeps draw by
    geometric mod interval above |ln q| = 2**-16 and by the coupling
    sweep below it; see the module docstring. q takes the contract of
    exact._weight, and keeps it as the double the chain computes in, which
    must not round to 0 or 1; sweeps in [1, MAX_SWEEPS], burn_in >= 0 and
    seed >= 0 take the rule of errors.integer_value.
    """
    import numpy as np
    q = real_value(_weight(q), "q")
    if q == 0.0 or q == 1.0:
        raise InvalidArgument(f"q rounds to {q:g} as a double, which the chain computes in")
    sweeps = integer_value(sweeps, "sweeps", 1, MAX_SWEEPS)
    burn_in = integer_value(burn_in, "burn_in", 0)
    seed = integer_value(seed, "seed", 0)
    n, width = seq.n, seq.top + 1
    offsets = np.array([k * width for i in range(1, n + 1) for k in range(i)], dtype=np.int64)
    cells = np.zeros(width * max(n, 1), dtype=np.int64)
    areas = array("q")
    moved, skip, last = 0, burn_in, None
    for block in _states(seq, q, burn_in + sweeps, seed):
        if last is not None:
            moved += int(np.count_nonzero(block[0] != last))
        moved += int(np.count_nonzero(block[1:] != block[:-1]))
        last = block[-1]
        kept = block[skip:]
        skip = max(skip - len(block), 0)
        if len(kept):
            areas.extend(kept.sum(axis=1).tolist())
            cells += np.bincount((kept + offsets).ravel(), minlength=cells.size)

    density = DensityField(cells.reshape(max(n, 1), width).T, len(areas))
    movable = sum(x != y for x, y in zip(min_area_abscissas(seq), max_area_abscissas(seq)))
    proposals = (burn_in + sweeps - 1) * movable
    acceptance = moved / proposals if proposals else 0.0
    return ChainResult(density, areas, acceptance, proposals, sweeps, burn_in, seed)
