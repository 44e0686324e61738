"""Heat-bath sampler: state, site intervals, exact start, determinism."""

import hashlib
import math
import random
from collections import Counter
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qpaths.sampler as sampler
from qpaths.configs import (
    ENUM_MAX_N,
    ENUM_MAX_TOP,
    PathConfig,
    enumerate_configs,
    max_area_abscissas,
    min_area_abscissas,
)
from qpaths.errors import InvalidArgument, NumericalFailure
from qpaths.exact import StartSequence
from qpaths.sampler import _neighbours, _sweep, run_chain

from lattice_paths import abscissas, paths_from_abscissas


def coordinates(seq, b):
    """The sampler's working list c + consts for the north-step array b,
    in interlacing coordinates c = b - shift."""
    _, consts, shift = _neighbours(seq)
    return [x - i for x, i in zip(b, shift)] + consts


def state(config):
    """The sampler's working list c + consts for a configuration."""
    return coordinates(config.starts, abscissas(config))


def interval(v, site):
    s, lo1, lo2, hi1, hi2 = site
    return max(v[lo1], v[lo2]), min(v[hi1], v[hi2])


def exact_weights(seq, q):
    weights = {c.paths: q ** c.total_area() for c in enumerate_configs(seq)}
    z = sum(weights.values())
    return {paths: w / z for paths, w in weights.items()}


def visited(seq, q, sweeps, seed, burn_in=0):
    """The configurations of a run's recorded sweeps and their counts,
    tallied from the rows of sampler._states."""
    rows = (row for block in sampler._states(seq, q, burn_in + sweeps, seed) for row in block.tolist())
    counts = Counter(map(tuple, islice(rows, burn_in, None)))
    return {paths_from_abscissas(seq, b): c for b, c in counts.items()}


def total_variation(counts, exact):
    total = sum(counts.values())
    tv = 0.5 * sum(abs(counts.get(k, 0) / total - p) for k, p in exact.items())
    return tv + 0.5 * sum(c / total for k, c in counts.items() if k not in exact)


def test_abscissas_round_trip():
    seq = StartSequence((0, 1, 4))
    for c in enumerate_configs(seq):
        b = abscissas(c)
        assert len(b) == seq.n * (seq.n + 1) // 2
        assert paths_from_abscissas(seq, b) == c.paths
        assert sum(b) == c.total_area()


def test_extremal_configs_sit_at_interval_ends():
    for values in ((0, 1, 4), (0, 2, 4), (0, 2, 5, 7), (0, 3, 4, 9, 10)):
        seq = StartSequence(values)
        plan, *_ = _neighbours(seq)
        lo_state = state(PathConfig(seq, paths_from_abscissas(seq, min_area_abscissas(seq))))
        hi_state = state(PathConfig(seq, paths_from_abscissas(seq, max_area_abscissas(seq))))
        for site in plan:
            assert lo_state[site[0]] == interval(lo_state, site)[0]
            assert hi_state[site[0]] == interval(hi_state, site)[1]


def start_sequences(max_n, max_top):
    return st.integers(0, max_n).flatmap(
        lambda n: st.lists(st.integers(1, max_top), min_size=n, max_size=n, unique=True)
    ).map(lambda xs: StartSequence([0, *sorted(xs)]))


@given(st.one_of(start_sequences(ENUM_MAX_N, ENUM_MAX_TOP), start_sequences(12, 60)))
@settings(max_examples=150, deadline=None)
def test_closed_form_extremal_arrays(seq):
    # The closed-form arrays are valid configurations, sit at the low and
    # high end of every site interval, and are the area extremes wherever
    # enumeration reaches.
    plan, *_ = _neighbours(seq)
    bottom, top = min_area_abscissas(seq), max_area_abscissas(seq)
    for b in (bottom, top):
        assert abscissas(PathConfig(seq, paths_from_abscissas(seq, b))) == b
    lo_state, hi_state = coordinates(seq, bottom), coordinates(seq, top)
    for site in plan:
        assert lo_state[site[0]] == interval(lo_state, site)[0]
        assert hi_state[site[0]] == interval(hi_state, site)[1]
    if seq.n <= ENUM_MAX_N and seq.top <= ENUM_MAX_TOP:
        areas = [c.total_area() for c in enumerate_configs(seq)]
        assert (sum(bottom), sum(top)) == (min(areas), max(areas))


def test_site_interval_is_the_admissible_range():
    # Moving one north step keeps the paths disjoint exactly inside [lo, hi],
    # and changes the area by the move: the heat-bath law q**b on [lo, hi]
    # is the ensemble's conditional law of that site (detailed balance).
    for values in ((0, 1, 4), (0, 2, 3)):
        seq = StartSequence(values)
        plan, _, shift = _neighbours(seq)
        for c in enumerate_configs(seq):
            v = state(c)
            b = abscissas(c)
            for site in plan:
                s = site[0]
                lo, hi = (x + shift[s] for x in interval(v, site))
                assert lo <= b[s] <= hi
                for x in range(seq.top + 2):
                    moved = b[:s] + [x] + b[s + 1:]
                    try:
                        config = PathConfig(seq, paths_from_abscissas(seq, moved))
                    except InvalidArgument:
                        assert not lo <= x <= hi
                    else:
                        assert lo <= x <= hi
                        assert config.total_area() == c.total_area() + x - b[s]


@pytest.mark.parametrize("q", [0.7, 1.6, 0.05])
def test_draw_is_truncated_geometric(q):
    # One site with lo = 2, hi = 7: v = [b, lo1, lo2, hi1, hi2].
    plan = [(0, 1, 2, 3, 4)]
    qf = Fraction(q)
    weights = {x: qf**x for x in range(2, 8)}
    z = sum(weights.values())
    grid = 10_000
    draws = []
    for i in range(grid):
        v = [0, 2, 0, 7, 100]
        _sweep(v, plan, [(i + 0.5) / grid], abs(math.log(q)), q > 1.0)
        draws.append(v[0])
    # Inverse CDF: monotone in u, and each value takes a share of [0, 1)
    # equal to its exact weight.
    assert draws == sorted(draws, reverse=q > 1.0)
    for x, w in weights.items():
        assert abs(draws.count(x) - grid * float(w / z)) <= 1


def test_draw_at_the_largest_uniform_stays_in_range():
    # random() returns at most 1 - 2**-53, where the inverse CDF can round
    # up to hi - lo + 1 steps: here lo = 3, hi = 5 and exp(-rate) = q.
    u, rate = 1.0 - 2.0**-53, 0.4
    assert int(math.log1p(u * math.expm1(-3 * rate)) / -rate) == 3
    for up, end in ((False, 5), (True, 3)):
        v = [0, 3, 0, 5, 100]
        _sweep(v, [(0, 1, 2, 3, 4)], [u], rate, up)
        assert v[0] == end


def test_sweep_is_monotone():
    # Coupling from the past needs ordered states to stay ordered under a
    # common sweep.
    seq = StartSequence((0, 1, 4))
    plan, *_ = _neighbours(seq)
    states = [state(c) for c in enumerate_configs(seq)]
    rng = random.Random(5)
    for lower in states:
        for upper in states:
            if all(x <= y for x, y in zip(lower, upper)):
                for q in (0.3, 2.5):
                    us = [rng.random() for _ in plan]
                    lo, hi = list(lower), list(upper)
                    _sweep(lo, plan, us, abs(math.log(q)), q > 1.0)
                    _sweep(hi, plan, us, abs(math.log(q)), q > 1.0)
                    assert all(x <= y for x, y in zip(lo, hi))


def b_neighbours(seq):
    """The plan in north-step coordinates b that the chain ran on before
    its interlacing coordinates, kept as the tests' reference. Per site
    (site, lo1, lo2, hi1, hi2): indices into b + consts with
    lo = max(v[lo1], v[lo2] + 1) and hi = min(v[hi1], v[hi2] - 1); the
    slots after the sites are 0, a_n + 1 (no bound above the top path)
    and a_0 .. a_n."""
    n, a = seq.n, seq.values
    size = n * (n + 1) // 2

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
    return plan, [0, a[-1] + 1, *a]


def b_sweep(v, plan, uniforms, rate, up):
    """The coupling sweep's inverse-CDF draw on the b-space plan."""
    for (s, lo1, lo2, hi1, hi2), u in zip(plan, uniforms):
        lo, hi = max(v[lo1], v[lo2] + 1), min(v[hi1], v[hi2] - 1)
        j = min(int(math.log1p(u * math.expm1(-(hi - lo + 1) * rate)) / -rate), hi - lo)
        v[s] = hi - j if up else lo + j


def mod_sweeps(v, plan, draws, up):
    """The forward chain's per-site loop before the sweep kernel, kept as
    its reference: heat-bath updates of the planned sites in order, each
    from one untruncated geometric G as G mod (hi - lo + 1) steps from the
    heavy end of [lo, hi]."""
    for (s, lo1, lo2, hi1, hi2), g in zip(plan, draws):
        lo, bound = v[lo2] + 1, v[lo1]
        if bound > lo:
            lo = bound
        hi, bound = v[hi2] - 1, v[hi1]
        if bound < hi:
            hi = bound
        v[s] = hi - g % (hi - lo + 1) if up else lo + g % (hi - lo + 1)


def b_states(seq, q, sweeps, seed):
    """The rows sampler._states yields, from the b-space reference loops:
    coupling from the past as _exact_start runs it, then every forward
    sweep's draws from one call, by G mod the interval at or above the
    |ln q| floor and by the inverse CDF below it."""
    plan, consts = b_neighbours(seq)
    bottom = min_area_abscissas(seq) + consts
    top = max_area_abscissas(seq) + consts
    plan = [p for p in plan if bottom[p[0]] != top[p[0]]]
    sites, m = len(bottom) - len(consts), len(plan)
    rate, up = abs(math.log(q)), q > 1.0
    rng = random.Random(seed)
    seeds = []
    while True:
        seeds.append(rng.getrandbits(64))
        lower, upper = list(bottom), list(top)
        for j in range(len(seeds) - 1, -1, -1):
            uniform = random.Random(seeds[j]).random
            for _ in range(1 << max(j - 1, 0)):
                us = [uniform() for _ in plan]
                b_sweep(lower, plan, us, rate, up)
                b_sweep(upper, plan, us, rate, up)
        if lower == upper:
            break
    v, rows = lower, [lower[:sites]]
    if not plan:
        return rows * sweeps
    us = sampler._uniforms(rng, (sweeps - 1) * m)
    mod_draw = rate >= sampler._MOD_RATE_FLOOR
    draws = sampler._geometric(us, rate) if mod_draw else us.tolist()
    for k in range(sweeps - 1):
        if mod_draw:
            mod_sweeps(v, plan, draws[k * m:(k + 1) * m], up)
        else:
            b_sweep(v, plan, draws[k * m:(k + 1) * m], rate, up)
        rows.append(v[:sites])
    return rows


@given(start_sequences(8, 24), st.sampled_from([0.2, 0.7, 1.3, 4.0]), st.integers(0, 2**32))
@settings(max_examples=80, deadline=None)
def test_kernel_matches_the_site_loop(seq, q, seed):
    # The written-out sweep in interlacing coordinates gives the b-space
    # reference loop's states, row for row once the shift is added back,
    # however the sweeps are cut into calls; each call returns its last
    # state.
    plan, consts, shift = _neighbours(seq)
    bottom = coordinates(seq, min_area_abscissas(seq))
    top = coordinates(seq, max_area_abscissas(seq))
    plan = [p for p in plan if bottom[p[0]] != top[p[0]]]
    assume(plan)
    b_plan, b_consts = b_neighbours(seq)
    b_plan = [p for p in b_plan if bottom[p[0]] != top[p[0]]]
    sites, m = len(shift), len(plan)
    rate, up = abs(math.log(q)), q > 1.0
    rng = random.Random(seed)
    v = sampler._exact_start(bottom, top, plan, rate, up, rng)
    sweeps = 24
    draws = sampler._geometric(sampler._uniforms(rng, sweeps * m), rate)
    reference, expected = [x + i for x, i in zip(v, shift)] + b_consts, []
    for k in range(sweeps):
        mod_sweeps(reference, b_plan, draws[k * m:(k + 1) * m], up)
        expected.append(tuple(reference[:sites]))
    kernel = sampler._kernel(plan, v, sites, up)

    def shifted(row):
        return tuple(x + i for x, i in zip(row, shift))

    for cuts in ([1] * sweeps, [3, 7, 1, 5, 8], [sweeps]):
        row, rows, done = tuple(v[:sites]), [], 0
        for count in cuts:
            out = np.empty((count, sites), np.int64)
            row = kernel(row, draws[done * m:(done + count) * m], out)
            rows += map(tuple, out.tolist())
            assert row == rows[-1]
            done += count
        assert list(map(shifted, rows)) == expected
        assert list(shifted(row)) == reference[:sites]


@given(
    start_sequences(8, 24),
    st.sampled_from([0.2, 0.7, 1.3, 4.0, math.exp(2.0**-17)]),
    st.integers(0, 2**32),
)
@settings(max_examples=60, deadline=None)
def test_states_match_the_b_space_reference(seq, q, seed):
    # Both draws in interlacing coordinates, the shift added back once per
    # block: the blocks hold the b-space reference's rows, row for row,
    # whether the forward sweeps come one, three or five to a chunk or
    # all in one.
    sweeps = 24
    expected = b_states(seq, q, sweeps, seed)
    sites = len(expected[0])
    for per_chunk in (1, 3, 5, sweeps):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sampler, "_CHUNK_VALUES", per_chunk * max(sites, 1))
            blocks = list(sampler._states(seq, q, sweeps, seed))
        whole, rest = divmod(sweeps - 1, per_chunk)
        assert [len(b) for b in blocks] == [1] + [per_chunk] * whole + [rest] * (rest > 0)
        assert np.concatenate(blocks).tolist() == expected


@pytest.mark.parametrize("q", [0.05, 0.7, 1.6])
def test_mod_draw_is_truncated_geometric(q):
    # A fine grid of uniforms mapped to G: each {G = k} is one interval of
    # u, so its grid count is within 1 of the geometric mass, and past the
    # largest G drawn less than one grid point of mass is left.
    rate, up = abs(math.log(q)), q > 1.0
    grid = 100_000
    gs = sampler._geometric((np.arange(grid) + 0.5) / grid, rate)
    top = max(gs)
    counts = [gs.count(k) for k in range(top + 1)]
    rho = math.exp(-rate)
    for k, c in enumerate(counts):
        assert abs(c - grid * (1 - rho) * rho**k) <= 1
    assert grid * rho ** (top + 1) <= 1
    qf = Fraction(q)
    for m in range(7):
        # One site with lo = 2, hi = 2 + m: v = [b, lo1, lo2, hi1, hi2].
        kernel = sampler._kernel([(0, 1, 2, 3, 4)], [0, 2, 0, 2 + m, 100], 1, up)
        weights = {x: qf**x for x in range(2, 3 + m)}
        z = sum(weights.values())
        hits = {x: 0 for x in weights}
        classes = {x: 0 for x in weights}
        for g, c in enumerate(counts):
            (x,) = kernel((0,), [g], np.empty((1, 1), np.int64))
            hits[x] += c
            classes[x] += 1
        # Each value takes the G of one residue class mod m + 1, each G off
        # its exact share by at most one grid point, plus the tail.
        for x, w in weights.items():
            assert abs(hits[x] - grid * float(w / z)) <= classes[x] + 1


@pytest.mark.parametrize("q", [1.0 - 1e-9, 1.0 + 1e-9])
def test_forward_chain_next_to_q_one(monkeypatch, q):
    # Below the |ln q| floor float G cannot resolve its low digits, so the
    # forward chain keeps the coupling sweep.
    def no_kernel(*args):
        raise AssertionError("modular draw below the |ln q| floor")

    monkeypatch.setattr(sampler, "_kernel", no_kernel)
    seq = StartSequence((0, 1, 3))
    a = run_chain(seq, q, 20_000, seed=6)
    b = run_chain(seq, q, 20_000, seed=6)
    assert list(a.area_series) == list(b.area_series)
    assert np.array_equal(a.density.grid, b.density.grid)
    assert a.acceptance_rate == b.acceptance_rate
    lo = sum(min_area_abscissas(seq))
    hi = sum(max_area_abscissas(seq))
    assert all(lo <= x <= hi for x in a.area_series)
    assert total_variation(visited(seq, q, 20_000, 6), exact_weights(seq, Fraction(q))) < 0.05


def spy_kernel(monkeypatch):
    """The plans sampler._kernel is built for from now on."""
    plans = []
    kernel = sampler._kernel

    def spy(plan, *args):
        plans.append(plan)
        return kernel(plan, *args)

    monkeypatch.setattr(sampler, "_kernel", spy)
    return plans


@pytest.mark.parametrize("exponent, mod_draw", [(-15, True), (-17, False)])
def test_forward_draw_switches_at_the_rate_floor(monkeypatch, exponent, mod_draw):
    plans = spy_kernel(monkeypatch)
    for q in (math.exp(2.0**exponent), math.exp(-(2.0**exponent))):
        plans.clear()
        run_chain(StartSequence((0, 1, 3)), q, 50, seed=1)
        assert len(plans) == mod_draw


def test_kernel_is_built_once_per_forward_run(monkeypatch):
    plans = spy_kernel(monkeypatch)
    monkeypatch.setattr(sampler, "_CHUNK_VALUES", 7)
    seq = StartSequence((0, 2, 5))
    run_chain(seq, 0.7, 60, seed=1)
    assert len(plans) == 1
    # One sweep is the exact start alone, and a plan with no movable site
    # repeats the state: neither builds a kernel.
    plans.clear()
    run_chain(seq, 0.7, 1, seed=1)
    forced = run_chain(StartSequence((0, 1, 2)), 0.7, 60, seed=1, burn_in=5)
    empty = run_chain(StartSequence((0,)), 0.7, 60, seed=1)
    assert plans == []
    assert set(forced.area_series) == {sum(min_area_abscissas(StartSequence((0, 1, 2))))}
    assert forced.density.samples == empty.density.samples == 60


def test_acceptance_counts_area_changes():
    # seq=(0,2) has one movable site, so a sweep moved it exactly when the
    # area changed.
    seq = StartSequence((0, 2))
    result = run_chain(seq, 0.6, 5000, seed=3)
    areas = list(result.area_series)
    changes = sum(x != y for x, y in zip(areas, areas[1:]))
    assert result.proposals == 5000 - 1
    assert round(result.acceptance_rate * result.proposals) == changes
    # Burn-in sweeps run the same chain and count their moves; only their
    # states go unrecorded.
    warm = run_chain(seq, 0.6, 5000 - 137, seed=3, burn_in=137)
    assert list(warm.area_series) == areas[137:]
    assert warm.proposals == result.proposals
    assert round(warm.acceptance_rate * warm.proposals) == changes


def test_chunk_size_does_not_change_the_run(monkeypatch):
    seq = StartSequence((0, 2, 5))
    runs, states = [], []
    for chunk in (1 << 14, 30, 1):
        monkeypatch.setattr(sampler, "_CHUNK_VALUES", chunk)
        runs.append(run_chain(seq, 1.4, 400, seed=2, burn_in=45))
        *_, last = sampler._states(seq, 1.4, 445, 2)
        states.append((visited(seq, 1.4, 400, 2, burn_in=45), last[-1].tolist()))
    for other in runs[1:]:
        assert list(other.area_series) == list(runs[0].area_series)
        assert np.array_equal(other.density.grid, runs[0].density.grid)
        assert other.acceptance_rate == runs[0].acceptance_rate
    for other in states[1:]:
        assert other == states[0]


def test_exact_start_matches_exact_weights():
    # Sweep 0 of a run is the coupling-from-the-past sample itself.
    seq = StartSequence((0, 1, 3))
    counts = {}
    for seed in range(20_000):
        (paths,) = visited(seq, 0.7, 1, seed)
        counts[paths] = counts.get(paths, 0) + 1
    assert run_chain(seq, 0.7, 1, 0).proposals == 0
    assert total_variation(counts, exact_weights(seq, Fraction(7, 10))) < 0.02


@pytest.mark.parametrize("q, extreme", [(1e-300, min_area_abscissas), (1e300, max_area_abscissas)])
def test_extreme_q_gives_extremal_config(q, extreme):
    seq = StartSequence((0, 2, 5, 7))
    result = run_chain(seq, q, 20, seed=1)
    *_, last = sampler._states(seq, q, 20, 1)
    assert last[-1].tolist() == extreme(seq)
    assert set(result.area_series) == {sum(extreme(seq))}


# sha256 digests (first 16 hex digits) of the area series, density grid,
# acceptance rate (as hex) and proposals of runs (starts, q, sweeps, seed,
# burn_in) that cover both forward draws, q next to 1, burn-in past a
# chunk, one sweep, n = 0 and 1, and q = 1e-300.
PINNED_RUNS = [
    ((0, 1, 3), 0.7, 2000, 3, 0, "0e779da75a6cab35"),
    ((0, 1, 3), 1 + 1e-9, 500, 6, 0, "c55f7587576b5b4c"),
    ((0, 2, 5), 1.4, 400, 2, 45, "041ccb4d490b5b5e"),
    ((0, 2, 5), 0.6, 300, 5, 4100, "b810bd59e82b25e0"),
    ((0, 1, 3), 0.7, 1, 11, 0, "428369fd5a0fa543"),
    ((0,), 0.7, 50, 1, 3, "c7ee0953e7ac8e38"),
    ((0, 3), 0.8, 100, 1, 0, "8cd776b12e48bf09"),
    ((0, 2, 5, 7), 1e-300, 20, 1, 0, "4f3547e1001e7956"),
    ((0, 2, 4, 6), math.exp(-(2.0**-17)), 1000, 4, 0, "75ace700143c2540"),
    (tuple(range(0, 21, 2)), 3**0.1, 300, 1, 0, "dd3aa2cb93ca4a8f"),
]


@pytest.mark.parametrize("starts, q, sweeps, seed, burn_in, digest", PINNED_RUNS)
def test_run_chain_is_pinned(starts, q, sweeps, seed, burn_in, digest):
    r = run_chain(StartSequence(starts), q, sweeps, seed, burn_in=burn_in)
    key = repr((list(r.area_series), r.density.grid.tolist(), r.acceptance_rate.hex(), r.proposals))
    assert hashlib.sha256(key.encode()).hexdigest()[:16] == digest


def test_look_back_cap_raises(monkeypatch):
    seq = StartSequence((0, 3, 6, 9, 12))
    monkeypatch.setattr(sampler, "CFTP_MAX_SWEEPS", 4)
    with pytest.raises(NumericalFailure):
        run_chain(seq, 0.9, 10, seed=0)


def test_run_chain_deterministic_per_seed():
    seq = StartSequence((0, 1, 3))
    a = run_chain(seq, 0.7, 4000, seed=9)
    b = run_chain(seq, 0.7, 4000, seed=9)
    c = run_chain(seq, 0.7, 4000, seed=10)
    assert np.array_equal(a.density.grid, b.density.grid)
    assert list(a.area_series) == list(b.area_series)
    assert a.acceptance_rate == b.acceptance_rate
    assert not np.array_equal(a.density.grid, c.density.grid)


def test_run_chain_forced_sequence_density():
    # seq=(0,1) has a single configuration, so the field is deterministic.
    result = run_chain(StartSequence((0, 1)), 0.5, 500, seed=1)
    rows = result.density.rows().tolist()
    assert rows == [[1, 0, result.density.samples]]
    assert result.acceptance_rate == 0.0
    assert result.proposals == 0


def test_run_chain_two_state_ratio():
    # seq=(0,2) alternates between areas 1 and 2 with stationary ratio q.
    q = 0.6
    counts = sorted(visited(StartSequence((0, 2)), q, 40_000, 4).values())
    assert len(counts) == 2
    ratio = counts[1] / counts[0]
    assert abs(ratio - 1.0 / q) < 0.1


def test_run_chain_total_variation_small():
    # Smaller copy of the stationarity acceptance run, at q < 1 and q > 1.
    seq = StartSequence((0, 1, 3))
    for q, qf in ((0.7, Fraction(7, 10)), (1.6, Fraction(8, 5))):
        assert total_variation(visited(seq, q, 60_000, 12), exact_weights(seq, qf)) < 0.05


def test_run_chain_area_series_and_burn_in():
    seq = StartSequence((0, 1, 3))
    result = run_chain(seq, 0.7, 2000, seed=3)
    assert result.burn_in == 0
    # sweeps counts measured sweeps; sweep 0 is the exact start.
    assert len(result.area_series) == result.sweeps
    lo = sum(min_area_abscissas(seq))
    hi = sum(max_area_abscissas(seq))
    assert all(lo <= a <= hi for a in result.area_series)
    # Burn-in sweeps run after the exact start and are not recorded.
    warm = run_chain(seq, 0.7, 2000, seed=3, burn_in=50)
    assert warm.burn_in == 50
    assert len(warm.area_series) == 2000
    movable = 2  # b[1][0] is pinned to a_0 + 1 = a_1; b[2][0], b[2][1] move
    assert warm.proposals == (50 + 2000 - 1) * movable
    assert 0.0 < warm.acceptance_rate < 1.0


def test_run_chain_validation():
    seq = StartSequence((0, 1, 3))
    with pytest.raises(InvalidArgument):
        run_chain(seq, -0.5, 100, seed=0)
    with pytest.raises(InvalidArgument):
        run_chain(seq, 0.7, 0, seed=0)
    with pytest.raises(InvalidArgument):
        run_chain(seq, 0.7, 10, seed=0, burn_in=-1)
    # The integer arguments take errors.integer_value's rule and q
    # exact._weight's: no bool, float, string or negative seed runs.
    for kwargs in ({"sweeps": 2.5}, {"sweeps": True}, {"burn_in": 0.5}, {"seed": 1.5},
                   {"seed": "a"}, {"seed": -1}, {"q": "0.7"}, {"q": None},
                   {"q": Fraction(1, 10**400)}, {"q": Fraction(10**400)}, {"q": 1 + Fraction(1, 10**20)}):
        args = {"q": 0.7, "sweeps": 10, "seed": 0, **kwargs}
        with pytest.raises(InvalidArgument):
            run_chain(seq, **args)
    # A rational q that rounds to 0 or 1 as a double is refused in those
    # words; a q that is 0 or 1 keeps exact._weight's.
    for q, words in ((Fraction(1, 10**400), "rounds to 0 as a double"),
                     (1 + Fraction(1, 10**20), "rounds to 1 as a double"),
                     (Fraction(0), "q = 0 is excluded"), (Fraction(1), "q = 1 is excluded"),
                     (0.0, "q = 0 is excluded"), (1.0, "q = 1 is excluded")):
        with pytest.raises(InvalidArgument, match=words):
            run_chain(seq, q, 10, seed=0)
    # A rational q samples as its float.
    a, b = run_chain(seq, Fraction(7, 10), 50, seed=3), run_chain(seq, 0.7, 50, seed=3)
    assert a.area_series == b.area_series


def test_density_grid_totals():
    seq = StartSequence((0, 1, 3))
    result = run_chain(seq, 0.7, 3000, seed=8)
    # Every recorded sweep contributes exactly one north step per path row.
    north_steps_per_config = len(min_area_abscissas(seq))
    assert result.density.grid.sum() == result.density.samples * north_steps_per_config
