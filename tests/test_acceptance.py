"""Acceptance gate: one test per shipped guarantee.

Each test prints a single `[criterion NN] name: PASS|FAIL` line with the
measured quantity, then asserts the stated tolerance.  Numbers quoted in
the assertions are the contract; nothing here is tuned to the
implementation.
"""

import math
import random
import time
from collections import Counter
from fractions import Fraction

import numpy as np

from qpaths.actions import action_bulk, action_free, action_free_dual
from qpaths.configs import enumerate_configs
from qpaths.curves import (
    arctic_curve,
    arctic_point,
    exit_params_left,
    exit_params_right,
    t_domains,
    x_of_t,
)
from qpaths.errors import QpathsError
from qpaths.exact import (
    StartSequence,
    dual_sequence,
    most_likely_exit,
    one_point_exit,
    one_point_exit_det,
    partition_det,
    partition_product,
)
from qpaths.geometry import hausdorff_distance
from qpaths.profile import StartDensity, freezing_tent, limit_curve
from qpaths.sampler import _states

from lattice_paths import paths_from_abscissas

UNIFORM = StartDensity([(1.0, 2.0)])  # alpha(u) = 2u
CORNERED = StartDensity([(1 / 3, 2.0), (1 / 3, 4.0), (1 / 3, 2.0)])
FILLED_MID = StartDensity([(1 / 3, 2.0), (1 / 3, 1.0), (1 / 3, 2.0)])
GAPPED_MID = StartDensity([(1 / 2, 2.0), (1 / 2, 2.0)], jumps=[(1 / 2, 1.0)])
HEX_LIKE = StartDensity([(1 / 3, 1.0), (2 / 3, 1.0)], jumps=[(1 / 3, 1.0)])


def report(num, name, ok, detail):
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def random_rational(rng):
    q = Fraction(1)
    while q == 1:
        q = Fraction(rng.randint(1, 40), rng.randint(1, 40))
    return q


def _xy(curve):
    """The (X, Y) points of a curve, in sweep order."""
    return [(x, y) for _, x, y in curve.points]


def branch_points(d, qq, which, n_samples=200):
    for dom in t_domains(d, qq):
        if dom.branch == which:
            return _xy(arctic_curve(d, qq, dom, n_samples=n_samples))
    raise AssertionError(f"no branch {which!r}")


def test_criterion_01_partition_determinant_equals_product():
    rng = random.Random(101)
    t0 = time.time()
    checks = 0
    for _ in range(50):
        n = rng.randint(1, 6)
        seq = StartSequence((0, *sorted(rng.sample(range(1, 19), n))))
        z = partition_det(seq)
        for _ in range(10):
            q = random_rational(rng)
            assert z(q) == partition_product(seq, q)
            checks += 1
    elapsed = time.time() - t0
    report(
        1,
        "determinant vs product partition function",
        checks == 500 and elapsed < 10.0,
        f"{checks} exact equalities in {elapsed:.2f}s",
    )


def test_criterion_02_partition_equals_enumeration():
    t0 = time.time()
    count = 0
    for a2 in range(2, 6):
        for a1 in range(1, a2):
            seq = StartSequence((0, a1, a2))
            z = partition_det(seq)
            areas = Counter(c.total_area() for c in enumerate_configs(seq))
            coeffs = [areas.get(k, 0) for k in range(z.degree + 1)]
            assert coeffs == list(z.coeffs)
            count += 1
    elapsed = time.time() - t0
    report(
        2,
        "partition polynomial vs exhaustive enumeration",
        count == 10 and elapsed < 5.0,
        f"{count} sequences coefficient-exact in {elapsed:.2f}s",
    )


def test_criterion_03_partition_reversal_symmetry():
    rng = random.Random(303)
    checks = 0
    for _ in range(12):
        n = rng.randint(1, 5)
        seq = StartSequence((0, *sorted(rng.sample(range(1, 15), n))))
        za = partition_det(seq)
        zd = partition_det(dual_sequence(seq))
        e = n * (n + 1) * (3 * seq.top + n + 2) // 6
        for q in (Fraction(2, 3), Fraction(5, 2), Fraction(7)):
            assert za(q) == q**e * zd(1 / q)
            checks += 1
    report(3, "partition reversal symmetry", checks == 36, f"{checks} exact equalities")


def test_criterion_04_one_point_triple_agreement():
    qs = (Fraction(1, 3), Fraction(2, 5), Fraction(2), Fraction(7, 2))
    seqs = [
        StartSequence(s)
        for s in ((0, 1), (0, 3), (0, 1, 4), (0, 2, 5), (0, 1, 3, 6), (0, 2, 3, 6))
    ]
    checks = 0
    for seq in seqs:
        for q in qs:
            z = partition_det(seq)(q)
            by_exit = {}
            n = seq.n
            for c in enumerate_configs(seq):
                ell = max(x for x, y in c.paths[-1] if y == n)
                by_exit[ell] = by_exit.get(ell, Fraction(0)) + q ** c.total_area()
            for ell in range(seq.top + 1):
                tail = sum(
                    (w for e, w in by_exit.items() if e >= ell), Fraction(0)
                ) / z
                h = one_point_exit(seq, ell, q)
                assert h == tail
                assert h == one_point_exit_det(seq, ell, q)
                checks += 1
    report(
        4,
        "one-point function: residue = determinant = enumeration",
        checks > 0,
        f"{checks} exact triple agreements",
    )


def test_criterion_05_one_point_complementarity():
    rng = random.Random(505)
    checks = 0
    for _ in range(12):
        n = rng.randint(1, 4)
        seq = StartSequence((0,))
        while seq.top <= seq.n:  # need at least one admissible abscissa
            seq = StartSequence((0, *sorted(rng.sample(range(1, 13), n))))
        # The residue route at q against the determinant on the reflected
        # model at 1/q, where an exit at or beyond ell is one below
        # a_n + n + 1 - ell.
        dual = dual_sequence(seq)
        for q in (Fraction(3, 7), Fraction(5, 2)):
            for ell in range(seq.n + 1, seq.top + 1):
                h = one_point_exit(seq, ell, q)
                hd = one_point_exit_det(dual, seq.top + seq.n + 1 - ell, 1 / q)
                assert h + hd == 1
                checks += 1
    report(
        5,
        "exit/dual-exit complementarity",
        checks > 0,
        f"{checks} exact identities",
    )


def _admissible_ts(qq):
    if qq > 1.0:
        right = [qq**2 * (1.0 + s) for s in np.geomspace(1e-6, 1e4, 25)]
        left = [1.0 - s for s in np.geomspace(1e-6, 0.99, 13)] + [
            -s for s in np.geomspace(1e-3, 1e4, 12)
        ]
    else:
        right = [qq**2 * (1.0 - s) for s in np.geomspace(1e-6, 0.99, 13)] + [
            -s for s in np.geomspace(1e-3, 1e4, 12)
        ]
        left = [1.0 + s for s in np.geomspace(1e-6, 1e4, 25)]
    return right + left


def test_criterion_06_closed_form_weight_vs_quadrature():
    worst_closed = worst_quad = 0.0
    count = 0
    for qq in (3.0, 1.0 / 3.0):
        ts = _admissible_ts(qq)
        assert len(ts) == 50
        for t in ts:
            expected = math.sqrt((t - qq**2) / (t - 1.0)) / qq
            closed = x_of_t(UNIFORM, qq, t)
            quad = x_of_t(UNIFORM, qq, t, method="quadrature")
            worst_closed = max(worst_closed, abs(closed - expected) / abs(expected))
            worst_quad = max(worst_quad, abs(quad - expected) / abs(expected))
            count += 1
    report(
        6,
        "closed-form tangent weight vs quadrature",
        worst_closed <= 1e-10 and worst_quad <= 1e-8,
        f"{count} t-values, closed rel {worst_closed:.2e}, quadrature rel {worst_quad:.2e}",
    )


def test_criterion_07_uniform_profile_branch_endpoints():
    targets = [
        (3.0, 1e8, (math.log(6.0) / math.log(3.0), 1.0)),
        (3.0, 9.0 * (1.0 + 1e-8), (2.0, 0.0)),
        (1.0 / 3.0, -1e8, (math.log(2.0 / 9.0) / math.log(1.0 / 3.0), 1.0)),
        (1.0 / 3.0, (1.0 / 9.0) * (1.0 - 1e-8), (2.0, 0.0)),
    ]
    worst = 0.0
    for qq, t, (ex, ey) in targets:
        x, y = arctic_point(UNIFORM, qq, t)
        worst = max(worst, abs(x - ex), abs(y - ey))
    report(
        7,
        "arctic-curve endpoint limits for the uniform profile",
        worst <= 1e-3,
        f"worst coordinate error {worst:.2e}",
    )


def test_criterion_08_envelope_residual_all_branches():
    worst = 0.0
    branches = 0
    for d, qq in (
        (UNIFORM, 3.0),
        (UNIFORM, 1.0 / 3.0),
        (CORNERED, 1e-2),
        (CORNERED, 1e2),
    ):
        for dom in t_domains(d, qq):
            curve = arctic_curve(d, qq, dom, n_samples=200)
            assert len(curve) >= 200
            branches += 1
            for t, bx, by in curve.points:
                x = x_of_t(d, qq, t)
                resid = abs(x * qq**by + (1.0 - x) / t * qq**bx - 1.0)
                worst = max(worst, resid)
    report(
        8,
        "envelope identity along every branch",
        worst <= 1e-10,
        f"{branches} branches x 200+ samples, worst residual {worst:.2e}",
    )


def test_criterion_09_saddle_residuals_by_finite_differences():
    qq, eps = 3.0, 1e-5

    def fd_t(t, xi):
        h = eps * abs(t)
        return (
            action_bulk(UNIFORM, qq, t + h, xi) - action_bulk(UNIFORM, qq, t - h, xi)
        ) / (2 * h)

    def fd_xi(t, xi, z, which):
        def total(x):
            bulk = action_bulk(UNIFORM, qq, t, x)
            if which == "right":
                return bulk + action_free(qq, x, z)
            return bulk + action_free_dual(UNIFORM, qq, x, z)

        return (total(xi + eps) - total(xi - eps)) / (2 * eps)

    worst = 0.0
    kept = {}
    for which, fn, ts in (
        ("right", exit_params_right, np.geomspace(9.3, 1e6, 28)),
        ("left", exit_params_left, -np.geomspace(12.5, 1e6, 40)),
    ):
        kept[which] = 0
        for t in (float(v) for v in ts):
            try:
                v = fn(UNIFORM, qq, t)
            except QpathsError:
                continue  # tail length not real there; scan keeps the rest
            kept[which] += 1
            worst = max(worst, abs(fd_t(t, v.xi)), abs(fd_xi(t, v.xi, v.z, which)))
    report(
        9,
        "stationarity of the action at computed exit parameters",
        min(kept.values()) >= 20 and worst <= 1e-6,
        f"right {kept['right']} / left {kept['left']} points, worst |fd| {worst:.2e}",
    )


def test_criterion_10_finite_size_exit_matches_scaling_prediction():
    t0 = time.time()
    seq = StartSequence(tuple(2 * i for i in range(31)))
    n = seq.n
    q = 3.0 ** (1.0 / n)
    ell = most_likely_exit(seq, 15, q)  # shift r = z*n with z = 0.5

    lo, hi = 9.0 + 1e-6, 50.0
    assert exit_params_right(UNIFORM, 3.0, lo).z > 0.5 > exit_params_right(
        UNIFORM, 3.0, hi
    ).z
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if exit_params_right(UNIFORM, 3.0, mid).z > 0.5:
            lo = mid
        else:
            hi = mid
    xi = exit_params_right(UNIFORM, 3.0, 0.5 * (lo + hi)).xi
    diff = abs(ell / n - xi)
    elapsed = time.time() - t0
    report(
        10,
        "finite-size most-likely exit vs scaling exit height",
        diff <= 0.1 and elapsed < 30.0,
        f"exit {ell}/{n} = {ell / n:.4f} vs xi = {xi:.4f}, diff {diff:.4f}, {elapsed:.1f}s",
    )


def test_criterion_11_chain_reaches_exact_distribution():
    t0 = time.time()
    seq = StartSequence((0, 1, 3))
    q = 0.7
    # The configuration of every sweep, counted from the chain's states.
    tally = Counter()
    for block in _states(seq, q, 1_000_000, 17):
        tally.update(map(tuple, block.tolist()))
    counts = {paths_from_abscissas(seq, b): c for b, c in tally.items()}
    weights = {c.paths: q ** c.total_area() for c in enumerate_configs(seq)}
    z = sum(weights.values())
    total = sum(counts.values())
    tv = 0.5 * sum(
        abs(w / z - counts.get(key, 0) / total)
        for key, w in weights.items()
    )
    tv += 0.5 * sum(
        count / total
        for key, count in counts.items()
        if key not in weights
    )
    elapsed = time.time() - t0
    report(
        11,
        "Metropolis chain total-variation distance to exact weights",
        tv <= 0.01 and elapsed < 60.0,
        f"TV {tv:.4f} after 1e6 sweeps in {elapsed:.1f}s",
    )


def test_criterion_12_limit_polylines_at_extreme_bases():
    steep_main = limit_curve(CORNERED, "q_to_0")[0]
    flat_main = limit_curve(CORNERED, "q_to_inf")[0]
    d_steep = hausdorff_distance(branch_points(CORNERED, 1e-4, "right"), steep_main)
    d_flat = hausdorff_distance(branch_points(CORNERED, 1e3, "left"), flat_main)
    ladder_steep = [
        hausdorff_distance(branch_points(CORNERED, qq, "right"), steep_main)
        for qq in (1e-1, 1e-2, 1e-3, 1e-4)
    ]
    ladder_flat = [
        hausdorff_distance(branch_points(CORNERED, qq, "left"), flat_main)
        for qq in (1e1, 1e2, 1e3)
    ]
    monotone = all(
        a > b for a, b in zip(ladder_steep, ladder_steep[1:])
    ) and all(a > b for a, b in zip(ladder_flat, ladder_flat[1:]))
    report(
        12,
        "convergence to the degenerate-weight polylines",
        d_steep <= 0.05 and d_flat <= 0.05 and monotone,
        f"distance at 1e-4: {d_steep:.4f}, at 1e3: {d_flat:.4f} (tolerance 0.05); "
        f"ladders {['%.3f' % v for v in ladder_steep]} / "
        f"{['%.3f' % v for v in ladder_flat]} monotone={monotone}",
    )


def _whole_curve(d, qq):
    parts = []
    for dom in t_domains(d, qq):
        try:
            pts = _xy(arctic_curve(d, qq, dom, n_samples=200))
        except QpathsError:
            continue
        if pts:
            parts.append(pts)
    return parts


def test_criterion_13_unit_slope_profile_degenerates_to_three_segments():
    star_steep = [
        [(1 / 3, 0.0), (1.0, 2 / 3)],
        [(1.0, 2 / 3), (1.0, 1.0)],
        [(1.0, 2 / 3), (2.0, 2 / 3)],
    ]
    star_flat = [
        [(1 / 3, 1 / 3), (4 / 3, 1 / 3)],
        [(4 / 3, 0.0), (4 / 3, 1 / 3)],
        [(4 / 3, 1 / 3), (2.0, 1.0)],
    ]
    d_steep = hausdorff_distance(_whole_curve(HEX_LIKE, 1e-3), star_steep)
    d_flat = hausdorff_distance(_whole_curve(HEX_LIKE, 1e3), star_flat)
    report(
        13,
        "unit-slope profile with a unit jump collapses to segment stars",
        d_steep <= 0.05 and d_flat <= 0.05,
        f"distance at 1e-3: {d_steep:.4f}, at 1e3: {d_flat:.4f} (tolerance 0.05)",
    )


def _window_branch(d, qq):
    for dom in t_domains(d, qq):
        if "window" in dom.branch:
            return _xy(arctic_curve(d, qq, dom, n_samples=200))
    raise AssertionError("no window branch traced")


def test_criterion_14_freezing_windows_trace_extra_portions():
    assert [w.kind for w in FILLED_MID.windows] == ["filled"]
    assert [w.kind for w in GAPPED_MID.windows] == ["gap"]
    tent_filled = freezing_tent(FILLED_MID, FILLED_MID.windows[0], "q_to_0")
    tent_gapped = freezing_tent(GAPPED_MID, GAPPED_MID.windows[0], "q_to_inf")
    filled_curve = _window_branch(FILLED_MID, 1e-5)
    gapped_curve = _window_branch(GAPPED_MID, 1e4)
    assert len(filled_curve) >= 100 and len(gapped_curve) >= 100
    d_filled = hausdorff_distance(filled_curve, tent_filled)
    d_gapped = hausdorff_distance(gapped_curve, tent_gapped)
    report(
        14,
        "extra arctic portions over freezing windows approach their tents",
        d_filled <= 0.1 and d_gapped <= 0.1,
        f"filled window at 1e-5: {d_filled:.4f}, gap window at 1e4: {d_gapped:.4f} "
        f"(tolerance 0.1)",
    )
