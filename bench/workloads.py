"""The four benchmark workloads: inputs from a seed, one timed pass, its gate.

Each workload drives the public CLI (``qpaths.cli.main``) or the public
library functions, always through module attributes so that the traced
run's wrappers see every call. ``steps`` lists the timed parts of one pass
as (label, thunk) pairs; ``check`` runs after the pass, untimed, on the
thunks' results by label and compares every output with an independent
route. An operation is one checked result (a CSV row, a table value or a
returned number); a call that raises or exits non-zero is one failed
operation.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import random
import xml.etree.ElementTree as ET
from fnmatch import fnmatch
from fractions import Fraction

import qpaths.actions as actions
import qpaths.cli as cli
import qpaths.curves as curves
import qpaths.exact as exact
from qpaths.exact import StartSequence
from qpaths.profile import StartDensity

from stats import iat_sweeps

# Defects present at the seed commit. Failures matching these patterns are
# still counted in `failed`; any other failure makes the run incorrect.
KNOWN_FAILURES = {
    "exact": {
        "one_point_dual.n10": "float residue sums lose ~6 digits at n = 10: H_dual past a_n drifts from 1 by up to 2e-5",
    },
    "tangent": {
        "one_point*.n20": "float residue sums lose all digits at n = 20 (H_dual down to -2e5)",
        "one_point*.n40": "float residue sums lose all digits at n = 40 (|H| up to 1e26)",
    },
    "arctic": {
        "envelope_near_end.*": "rows within 1e-5 (in log|t| / log qq) of a finite branch end miss 1e-10, "
        "up to 4.8e-7: HEX_LIKE on all branches, CORNERED@1e-6 left, FILLED_MID@0.01 window",
    },
}


# Nominal time of one pass in seconds at the reference speed (worker.py),
# measured at the seed commit. A run times round(--seconds / PASS_S)
# passes, so its operation counts do not depend on the clock.
PASS_S = {"exact": 3.4, "sample": 2.35, "arctic": 3.65, "tangent": 3.9}


class Gate:
    """Operation counts and failures of one workload run."""

    def __init__(self, workload: str):
        self.known = KNOWN_FAILURES.get(workload, {})
        self.attempted = 0
        self.failures: dict[str, list[str]] = {}
        self.unexpected = 0

    def op(self, check: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.setdefault(check, []).append(detail)
            if not any(fnmatch(check, pattern) for pattern in self.known):
                self.unexpected += 1
        return ok

    @property
    def failed(self) -> int:
        return sum(len(v) for v in self.failures.values())

    def summary(self, limit: int = 3) -> dict:
        return {
            check: {"count": len(details), "examples": details[:limit]}
            for check, details in sorted(self.failures.items())
        }


class _Sink:
    def write(self, text):
        return len(text)

    def flush(self):
        pass


def run_cli(argv) -> str | None:
    """Run one CLI command with its output discarded; return an error or None."""
    sink = _Sink()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
    except Exception as exc:  # recorded as a failed operation, never dropped
        return f"{type(exc).__name__}: {exc}"
    return None if code == 0 else f"exit code {code}"


def read_rows(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def number(cell: str):
    """CSV cell as an exact int/Fraction or a float, by its written form."""
    if "/" in cell:
        return Fraction(cell)
    try:
        return int(cell)
    except ValueError:
        return float(cell)


def write_config(path: str, model: dict, task: dict | None = None) -> str:
    doc = {"model": model}
    if task:
        doc["task"] = task
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def base_root(base: float, n: int) -> float:
    """The float a {"base": B, "n": N} weight denotes."""
    return float(base) ** (1.0 / n)


def even_starts(n: int) -> tuple[int, ...]:
    return tuple(2 * i for i in range(n + 1))


# -- exact ------------------------------------------------------------------

_EXACT_CASES = ((8, "7/10"), (10, {"base": 3, "n": 10}), (12, "7/10"))


def exact_starts(rng: random.Random, n: int) -> tuple[int, ...]:
    """Starts a_i = 2i + d_i with d_i in {-1, 0, 1} drawn from rng, a_0 = 0, a_n = 2n.

    The Bareiss determinant's cost depends on the whole start pattern, so
    the draw stays next to the evenly spaced sequence and keeps deg Z =
    sum(i * a_i) within 1% of its value: the work per pass then barely
    changes with the seed while the inputs still do.
    """
    target = sum(i * a for i, a in enumerate(even_starts(n)))
    while True:
        seq = (0, *(2 * i + rng.choice((-1, 0, 1)) for i in range(1, n)), 2 * n)
        if all(a < b for a, b in zip(seq, seq[1:])) and (
            abs(sum(i * a for i, a in enumerate(seq)) - target) <= target // 100
        ):
            return seq


def poly_at(coeffs: list[int], q: Fraction) -> Fraction:
    """Exact value of sum c_k q^k by integer Horner on numerator/denominator."""
    p, d = q.numerator, q.denominator
    acc, dpow = 0, 1
    for c in reversed(coeffs):
        acc = acc * p + c * dpow
        dpow *= d
    return Fraction(acc, dpow // d)


def check_tables(gate: Gate, label: str, seq: StartSequence, h, h_dual, exact_q: bool) -> None:
    """Range, monotonicity and complementarity of the one-point tables.

    h maps ell in [0, a_n] to H(ell), h_dual maps ell in [n, a_n + n] to
    H_dual(ell); H(ell) + H_dual(ell - 1) = 1 wherever both exist.
    """
    tol = 0 if exact_q else 1e-9
    for name, table, step in (("one_point", h, -1), ("one_point_dual", h_dual, 1)):
        prev = None
        for ell in sorted(table):
            v = table[ell]
            ok = -tol <= v <= 1 + tol
            if prev is not None:
                ok = ok and step * (v - prev) >= -tol
            if name == "one_point" and ell - 1 in h_dual:
                ok = ok and abs(v + h_dual[ell - 1] - 1) <= tol
            gate.op(f"{name}.{label}", ok, f"ell={ell} value={float(v):.6g}")
            prev = v


class Exact:
    """`qpaths exact` on three finite configurations, n = 8, 10, 12."""

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        self.cases = []
        for n, q in _EXACT_CASES:
            seq = StartSequence(exact_starts(rng, n))
            path = write_config(
                os.path.join(workdir, f"exact_n{n}.json"),
                {"finite": {"sequence": list(seq), "q": q}},
            )
            qv = Fraction(q) if isinstance(q, str) else base_root(q["base"], q["n"])
            self.cases.append((f"n{n}", seq, qv, path, os.path.join(workdir, f"n{n}")))

    def steps(self, index: int):
        return [(label, lambda path=path, out=out: run_cli(["exact", "--config", path, "--out", out]))
                for label, _, _, path, out in self.cases]

    def check(self, gate: Gate, errors) -> dict:
        for label, seq, q, _, out in self.cases:
            if not gate.op(f"cli.{label}", errors[label] is None, str(errors[label])):
                continue
            exact_q = isinstance(q, Fraction)
            qx = q if exact_q else Fraction(q)  # the float's exact binary value
            _, rows = read_rows(os.path.join(out, "partition.csv"))
            coeffs = [int(c) for _, c in rows]
            z_ref = exact.partition_product(seq, qx)
            gate.op(f"partition.{label}", [int(d) for d, _ in rows] == list(range(len(rows)))
                    and poly_at(coeffs, qx) == z_ref, "Z(q) from partition.csv")
            with open(os.path.join(out, "exact_summary.json"), encoding="utf-8") as fh:
                summary = json.load(fh)
            z_cli = number(summary["partition_at_q"])
            ok = z_cli == z_ref if exact_q else abs(z_cli - float(z_ref)) <= 1e-12 * float(z_ref)
            gate.op(f"summary.{label}", ok, f"partition_at_q {summary['partition_at_q'][:40]}")
            gate.op(f"reversal.{label}", summary["reversal_pass"] is True,
                    f"residual {summary['reversal_residual']}")
            h = {int(e): number(v) for e, v in read_rows(os.path.join(out, "one_point.csv"))[1]}
            hd = {int(e): number(v) for e, v in read_rows(os.path.join(out, "one_point_dual.csv"))[1]}
            ok = sorted(h) == list(range(seq.top + 1)) and sorted(hd) == list(range(seq.n, seq.top + seq.n + 1))
            gate.op(f"table_domains.{label}", ok, "ell ranges of the one-point tables")
            check_tables(gate, label, seq, h, hd, exact_q)
        return {}


# -- sample -----------------------------------------------------------------

_SAMPLE_N = 10
_SAMPLE_SWEEPS = 20_000


class Sample:
    """`qpaths sample` on a = (0, 2, ..., 20), q = 3^(1/10), 20k sweeps."""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.seq = StartSequence(even_starts(_SAMPLE_N))
        self.q = base_root(3, _SAMPLE_N)
        self.path = write_config(
            os.path.join(workdir, "sample.json"),
            {"finite": {"sequence": list(self.seq), "q": {"base": 3, "n": _SAMPLE_N}}},
            {"sweeps": _SAMPLE_SWEEPS},
        )
        self.out = os.path.join(workdir, "sample")
        self._exact = None

    def chain_seed(self, index: int) -> int:
        return random.Random(self.seed * 1_000_003 + index).randrange(2**31)

    def steps(self, index: int):
        argv = ["sample", "--config", self.path, "--out", self.out,
                "--seed", str(self.chain_seed(index))]
        return [("chain", lambda: run_cli(argv))]

    def exact_area(self) -> tuple[float, int, int]:
        """Exact mean area q Z'(q)/Z(q) and the area range, from Z's coefficients."""
        if self._exact is None:
            coeffs = exact.partition_det(self.seq).coeffs
            weights = [(k, c * self.q**k) for k, c in enumerate(coeffs) if c]
            z = math.fsum(w for _, w in weights)
            mean = math.fsum(k * w for k, w in weights) / z
            self._exact = (mean, weights[0][0], weights[-1][0])
        return self._exact

    def check(self, gate: Gate, results) -> dict:
        error = results["chain"]
        if not gate.op("cli", error is None, str(error)):
            return {}
        mean_ref, lo, hi = self.exact_area()
        _, rows = read_rows(os.path.join(self.out, "area_series.csv"))
        areas = []
        for i, (sweep, area) in enumerate(rows):
            a = int(area)
            ok = lo <= a <= hi and (i == 0 or int(sweep) == int(rows[i - 1][0]) + 1)
            gate.op("area_series", ok, f"row {i}: sweep {sweep} area {area}")
            areas.append(a)
        per_sample = self.seq.n * (self.seq.n + 1) // 2
        _, cells = read_rows(os.path.join(self.out, "density.csv"))
        total = sum(int(c) for _, _, c in cells)
        gate.op("density_sum", len(areas) == _SAMPLE_SWEEPS and total == len(areas) * per_sample,
                f"{total} visits for {len(areas)} samples")
        if not areas:
            return {}
        tau = iat_sweeps(areas)
        ess = len(areas) / tau
        mean = math.fsum(areas) / len(areas)
        sigma = math.sqrt(math.fsum((a - mean) ** 2 for a in areas) / len(areas))
        bound = 5.0 * sigma / math.sqrt(ess)
        gate.op("mean_area", abs(mean - mean_ref) <= bound,
                f"mean {mean:.3f} vs exact {mean_ref:.3f}, 5 sigma/sqrt(ESS) = {bound:.3f}")
        return {"ess": ess, "iat": tau}


# -- arctic -----------------------------------------------------------------

# (segments, jumps) of the acceptance-test densities.
_DENSITIES = {
    "CORNERED": ([(1 / 3, 2.0), (1 / 3, 4.0), (1 / 3, 2.0)], []),
    "FILLED_MID": ([(1 / 3, 2.0), (1 / 3, 1.0), (1 / 3, 2.0)], []),
    "GAPPED_MID": ([(1 / 2, 2.0), (1 / 2, 2.0)], [(1 / 2, 1.0)]),
    "HEX_LIKE": ([(1 / 3, 1.0), (2 / 3, 1.0)], [(1 / 3, 1.0)]),
}
_ARCTIC_SAMPLES = 2000


def random_profile(rng: random.Random):
    """Three segments with slopes in [1.5, 4] and one interior jump."""
    cut1, cut2 = sorted(rng.uniform(0.15, 0.85) for _ in range(2))
    cut2 = max(cut2, cut1 + 0.1)
    widths = [cut1, cut2 - cut1, 1.0 - cut2]
    segments = [(w, rng.uniform(1.5, 4.0)) for w in widths]
    at = widths[0] if rng.random() < 0.5 else widths[0] + widths[1]
    return segments, [(at, rng.uniform(0.5, 2.0))]


def branch_ts(rng: random.Random, top: float, qq: float) -> list[float]:
    """One tangent parameter on each outer branch, for the SVG overlays."""
    e_top = qq**top
    s_right, s_left = 10 ** rng.uniform(-1.0, 1.0), 10 ** rng.uniform(-1.0, 0.5)
    if qq > 1.0:  # right (qq^top, inf), left (-inf, 1)
        return [e_top * (1.0 + s_right), 1.0 - s_left]
    return [e_top * (1.0 - s_left), 1.0 + s_right]  # right (-inf, qq^top), left (1, inf)


def limit_polylines(segments, jumps) -> dict:
    """Both degenerate limits, built from the profile without the package."""
    jump_after = {}
    u = 0.0
    for i, (w, _) in enumerate(segments):
        u += w
        for at, h in jumps:
            if abs(at - u) <= 1e-12:
                jump_after[i] = h
    top = sum(p * w for w, p in segments) + sum(h for _, h in jumps)
    closing = {"q_to_0": [(0.0, 0.0), (1.0, 1.0)], "q_to_inf": [(top, 1.0), (top, 0.0)]}
    out = {}
    for which in ("q_to_0", "q_to_inf"):
        x, y = (1.0, 1.0) if which == "q_to_0" else (0.0, 0.0)
        pts = [(x, y)]
        for i, (w, p) in enumerate(segments):
            if which == "q_to_0":
                x, y = x + (p - 1.0) * w, y - w
            else:
                x, y = x + p * w, y + w
            pts.append((x, y))
            if i in jump_after:
                x += jump_after[i]
                pts.append((x, y))
        out[which] = {"main": pts, "closing": closing[which]}
    return out


class Arctic:
    """`qpaths arctic --svg` with 2000 samples per branch, then `qpaths limits`."""

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        cases = [(name, base) for name in _DENSITIES for base in (1e-2, 1e3)]
        cases.append(("CORNERED", 1e-6))
        profiles = dict(_DENSITIES)
        profiles["RANDOM"] = random_profile(rng)
        cases.append(("RANDOM", 10 ** (rng.choice((-1, 1)) * rng.uniform(1.0, 3.0))))
        self.cases = []
        for name, base in cases:
            segments, jumps = profiles[name]
            top = sum(w * p for w, p in segments) + sum(h for _, h in jumps)
            label = f"{name}@{base:g}"
            path = write_config(
                os.path.join(workdir, f"{label}.json"),
                {"scaled": {"segments": [list(s) for s in segments],
                            "jumps": [list(j) for j in jumps], "base": base}},
                {"samples": _ARCTIC_SAMPLES, "t_values": branch_ts(rng, top, base)},
            )
            out = os.path.join(workdir, label)
            self.cases.append((label, segments, jumps, base, path, out))

    def steps(self, index: int):
        steps = []
        for label, _, _, _, path, out in self.cases:
            steps.append((f"{label}.arctic", lambda path=path, out=out: run_cli(
                ["arctic", "--config", path, "--out", out, "--svg"])))
            steps.append((f"{label}.limits", lambda path=path, out=out: run_cli(
                ["limits", "--config", path, "--out", out])))
        return steps

    def check(self, gate: Gate, errors) -> dict:
        for label, segments, jumps, qq, _, out in self.cases:
            arctic_error, limits_error = errors[f"{label}.arctic"], errors[f"{label}.limits"]
            if gate.op(f"cli.arctic.{label}", arctic_error is None, str(arctic_error)):
                d = StartDensity(segments, jumps=jumps)
                ends = {"right": (d.alpha_top,), "left": (0.0,)}
                for k, w in enumerate(d.windows, start=1):
                    ends[f"{w.kind}_window_{k}"] = (w.a_lo, w.a_hi)
                _, rows = read_rows(os.path.join(out, "arctic.csv"))
                for branch, t, bx, by in rows:
                    t, bx, by = float(t), float(bx), float(by)
                    x = curves.x_of_t(d, qq, t)
                    resid = abs(x * qq**by + (1.0 - x) / t * qq**bx - 1.0)
                    tau = math.log(t) / math.log(qq) if t > 0.0 else math.inf
                    near = min(abs(tau - e) for e in ends.get(branch, (math.inf,))) <= 1e-5
                    gate.op(f"envelope{'_near_end' if near else ''}.{label}.{branch}",
                            resid <= 1e-10, f"t={t:.17g} residual {resid:.3g}")
                try:
                    svg = ET.parse(os.path.join(out, "arctic.svg")).getroot()
                    lines = len(svg.findall("{http://www.w3.org/2000/svg}polyline"))
                except ET.ParseError as exc:
                    lines, why = 0, str(exc)
                else:
                    why = f"{lines} polylines"
                gate.op(f"svg.{label}", lines > 0, why)
            if not gate.op(f"cli.limits.{label}", limits_error is None, str(limits_error)):
                continue
            got: dict = {}
            for which, part, _, x, y in read_rows(os.path.join(out, "limits.csv"))[1]:
                got.setdefault(which, {}).setdefault(part, []).append((float(x), float(y)))
            for which, parts in limit_polylines(segments, jumps).items():
                ok = all(
                    len(got.get(which, {}).get(part, ())) == len(pts)
                    and all(math.dist(a, b) <= 1e-12 for a, b in zip(got[which][part], pts))
                    for part, pts in parts.items()
                )
                gate.op(f"limits.{label}.{which}", ok, "main and closing polylines")
        return {}


# -- tangent ----------------------------------------------------------------

_UNIFORM = StartDensity([(1.0, 2.0)])
_FILLED_MID = StartDensity([(1 / 3, 2.0), (1 / 3, 1.0), (1 / 3, 2.0)])
_TABLE_SIZES = (20, 40)


def tangent_ts(rng: random.Random, qq: float) -> list[float]:
    """Criterion 06's layout on UNIFORM, seed-jittered within strata.

    Half the values lie 1e-6 ... 1e-2 (relative) from a branch end, one
    per decade and end; the rest spread over both branches. Near-end
    values stay within 0.15 decades of their decade's middle: around
    1e-3 the panel-cap hits switch on and off erratically, and a free
    draw there would change the quadrature work from seed to seed.
    """
    def s(lo, hi):
        return 10 ** rng.uniform(lo, hi)

    near = [s(k + 0.35, k + 0.65) for k in range(-6, -2)]
    right_end, left_end = qq**2, 1.0
    up = qq > 1.0
    ts = [right_end * (1.0 + v if up else 1.0 - v) for v in near]
    ts += [left_end * (1.0 - v if up else 1.0 + v) for v in near]
    far_out = [s(-2.0 + 1.5 * k, -0.5 + 1.5 * k) for k in range(4)]  # 1e-2 ... 1e4
    inward = [s(-2.0, -1.0), s(-1.0, math.log10(0.99))]
    negative = [-s(-3.0, 0.5), -s(0.5, 4.0)]
    if up:
        ts += [right_end * (1.0 + v) for v in far_out]
        ts += [left_end * (1.0 - v) for v in inward] + negative
    else:
        ts += [left_end * (1.0 + v) for v in far_out]
        ts += [right_end * (1.0 - v) for v in inward] + negative
    return ts


def uniform_x(qq: float, t: float) -> float:
    """x(t) of the uniform profile alpha(u) = 2u in closed form."""
    return math.sqrt((t - qq**2) / (t - 1.0)) / qq


def scaling_exit(z: float) -> float:
    """Exit height xi of the right-branch tangency with tail length z (UNIFORM, 3)."""
    lo, hi = 9.0 + 1e-6, 1e6
    for _ in range(80):
        mid = math.sqrt(lo * hi)
        if curves.exit_params_right(_UNIFORM, 3.0, mid).z > z:
            lo = mid
        else:
            hi = mid
    return curves.exit_params_right(_UNIFORM, 3.0, math.sqrt(lo * hi)).xi


class Tangent:
    """Library calls: x(t) two ways, exit parameters and actions, float tables."""

    def __init__(self, seed: int, workdir: str):
        import numpy as np

        rng = random.Random(seed)
        self.weights = []
        for qq in (3.0, 1.0 / 3.0):
            self.weights += [("UNIFORM", _UNIFORM, qq, t) for t in tangent_ts(rng, qq)]
            # Principal-value points inside FILLED_MID's filled window (2/3, 1).
            self.weights += [("FILLED_MID", _FILLED_MID, qq, qq ** rng.uniform(0.7, 0.97))
                             for _ in range(2)]
        self.saddles = [("right", float(t)) for t in np.geomspace(9.3, 1e6, 28)]
        self.saddles += [("left", float(t)) for t in -np.geomspace(12.5, 1e6, 40)]
        self.tables = [(n, StartSequence(even_starts(n)), base_root(3, n)) for n in _TABLE_SIZES]
        self._xi = {}

    def steps(self, index: int):
        steps = [
            (f"x_of_t.{i}", lambda d=d, qq=qq, t=t: _attempt(lambda: (
                curves.x_of_t(d, qq, t), curves.x_of_t(d, qq, t, method="quadrature"))))
            for i, (_, d, qq, t) in enumerate(self.weights)
        ]
        steps.append(("saddles", lambda: [_attempt(lambda: _saddle(which, t))
                                          for which, t in self.saddles]))
        for n, seq, q in self.tables:
            steps.append((f"tables.n{n}", lambda n=n, seq=seq, q=q: (
                _attempt(lambda: {e: exact.one_point_exit(seq, e, q) for e in range(seq.top + 1)}),
                _attempt(lambda: {e: exact.one_point_exit_dual(seq, e, q)
                                  for e in range(seq.n, seq.top + seq.n + 1)}),
                _attempt(lambda: exact.most_likely_exit(seq, n // 2, q)),
            )))
        return steps

    def check(self, gate: Gate, results) -> dict:
        weights = [results[f"x_of_t.{i}"] for i in range(len(self.weights))]
        saddles = results["saddles"]
        tables = [results[f"tables.n{n}"] for n, _, _ in self.tables]
        for (name, _, qq, t), (value, error) in zip(self.weights, weights):
            label = f"{name}@{qq:.3g}"
            if not gate.op(f"x_of_t.{label}", error is None, f"t={t!r}: {error}"):
                continue
            closed, quad = value
            if name == "UNIFORM":
                ref = uniform_x(qq, t)
                rel = abs(closed - ref) / abs(ref)
                gate.op(f"x_closed.{label}", rel <= 1e-10, f"t={t!r} rel {rel:.3g}")
            rel = abs(quad - closed) / abs(closed)
            gate.op(f"x_quadrature.{label}", rel <= 1e-8, f"t={t!r} rel {rel:.3g}")
        for (which, t), (value, error) in zip(self.saddles, saddles):
            if error is not None:
                # Where the closed form has no real exit height or tail
                # length the library must refuse; anything else fails.
                gate.op(f"exit_params.{which}", _no_real_tail(which, t), f"t={t!r}: {error}")
                continue
            v, r_t, r_xi, fd = value
            gate.op(f"saddle_residual.{which}", max(abs(r_t), abs(r_xi)) <= 1e-6,
                    f"t={t!r} residuals {r_t:.3g}, {r_xi:.3g}")
            gate.op(f"action_stationary.{which}", fd <= 1e-6, f"t={t!r} |fd| {fd:.3g}")
        for (n, seq, q), (h, hd, best) in zip(self.tables, tables):
            label = f"n{n}"
            errors = [e for _, e in (h, hd, best) if e is not None]
            if not gate.op(f"tables.{label}", not errors, "; ".join(errors)):
                continue
            check_tables(gate, label, seq, h[0], hd[0], exact_q=False)
            if n not in self._xi:
                self._xi[n] = scaling_exit((n // 2) / n)
            diff = abs(best[0] / n - self._xi[n])
            gate.op(f"most_likely_exit.{label}", diff <= 0.1,
                    f"exit {best[0]}/{n} vs scaling xi {self._xi[n]:.4f}")
        return {}


def _attempt(fn):
    try:
        return fn(), None
    except Exception as exc:  # recorded as a failed operation, never dropped
        return None, f"{type(exc).__name__}: {exc}"


def _saddle(which: str, t: float):
    """Exit parameters, actions and closed-form residuals at one t (UNIFORM, 3)."""
    qq, d = 3.0, _UNIFORM
    if which == "right":
        v = curves.exit_params_right(d, qq, t)
        free = lambda xi: actions.action_free(qq, xi, v.z)  # noqa: E731
        r_xi = actions.saddle_residual_xi_right(d, qq, t, v.xi, v.z)
    else:
        v = curves.exit_params_left(d, qq, t)
        free = lambda xi: actions.action_free_dual(d, qq, xi, v.z)  # noqa: E731
        r_xi = actions.saddle_residual_xi_left(d, qq, t, v.xi, v.z)
    r_t = actions.saddle_residual_t(d, qq, t, v.xi)
    # Stationarity of bulk + free action in xi by central differences,
    # an independent check on the action values (criterion 09's step).
    eps = 1e-5
    total = [actions.action_bulk(d, qq, t, x) + free(x) for x in (v.xi + eps, v.xi - eps)]
    return v, r_t, r_xi, abs(total[0] - total[1]) / (2 * eps)


def _no_real_tail(which: str, t: float) -> bool:
    qq = 3.0
    x = uniform_x(qq, t)
    q_xi = t * (qq * x - 1.0) / (x - 1.0)
    if which == "right":
        q_z = (t - (1.0 - x)) / (t * qq * x)
    else:
        q_z = t / (qq * (t * x + qq**2 * (1.0 - x)))
    return not (q_xi > 0.0 and q_z > 0.0 and math.isfinite(q_xi) and math.isfinite(q_z))


WORKLOADS = {"exact": Exact, "sample": Sample, "arctic": Arctic, "tangent": Tangent}
