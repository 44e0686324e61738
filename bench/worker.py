"""One workload process: set up, time a fixed number of passes, gate each pass.

Started by run.py, one process per workload. It prints one JSON object as
its last line of standard output. With --setup-only it stops right after
set-up, which run.py uses to sample set-up time several times.

Times are reported at a fixed machine speed. The shared host this was
built on drifts by up to 40% over minutes (a fixed pure-Python loop took
3.4 ms to 4.8 ms from one run to the next), more than any median within a
run can absorb. Each timed step is therefore divided by the time of a
reference loop run just before and after it, and multiplied by
REFERENCE_S. The raw times are kept in the result record.

The number of passes is fixed by --seconds and the workload's nominal
pass time (PASS_S in workloads.py), not by the clock, so that a run's
operation and failure counts depend only on the workload, the seed and
--seconds.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"

# Time of reference_loop() on a 2-vCPU Intel Xeon sandbox in a quiet spell.
REFERENCE_S = 6.3e-3
# Untraced runs time at least this many passes; traced runs alternate
# untraced and traced passes and need two of each.
_MIN_PASSES = {False: 3, True: 4}
# Stop starting passes after this long, so the process ends well within
# the 180 s a run may take even if a pass gets much slower.
_TIME_CAP_S = 110.0


def pass_count(name: str, seconds: float, trace: bool) -> int:
    """Passes in one run: as many as take `seconds` at the nominal pass time."""
    from workloads import PASS_S

    return max(_MIN_PASSES[trace], round(seconds / PASS_S[name]))


def _call_unit(z: complex, w: float) -> complex:
    return cmath.sqrt(z * w + 1.0) / (z - w)


_TABLE = {i: float(i) for i in range(512)}


def reference_loop() -> float:
    """Median time of three runs of a fixed pure-Python workload.

    Each run is an integer loop followed by a loop of small function calls
    with complex arithmetic and dict lookups. On the host described above
    the sum tracked the slowdowns of steps of all four workloads better
    than either loop alone (per-step spread of `tangent` and `sample`
    steps over seven minutes 0.10 to 0.14, against 0.14 to 0.19 for the
    integer loop alone).
    """
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(60_000):
            acc += i * i
        z = 0j
        for i in range(6_000):
            z += _call_unit(complex(_TABLE[i & 511], 0.5), 0.25 + i * 1e-4) + math.log1p(i)
        times.append(time.perf_counter() - t0)
    return sorted(times)[1]


def _load_package() -> None:
    src = ROOT / "src"
    if not (src / "qpaths" / "__init__.py").is_file():
        raise SystemExit(f"no qpaths package under {src}")
    sys.path.insert(0, str(src))
    import qpaths

    if Path(qpaths.__file__).resolve().parent != src / "qpaths":
        raise SystemExit(f"imported qpaths from {qpaths.__file__}, not from {src}")


def pass_time(records, key: str) -> float:
    """Time of one pass: the sum over its steps of each step's median."""
    from stats import median

    return sum(median(r[key][label] for r in records) for label in records[0][key])


def _derive(row: dict, extra: dict) -> None:
    """Ratios of one traced pass, computed from its counters (in place)."""
    chain_sweeps = row.get("sampler.chain_sweeps", 0.0)
    if chain_sweeps:
        probe = row.get("sampler.probe_sweeps", 0.0)
        counted = row["sampler.proposals"]
        total = counted + probe * counted / chain_sweeps
        row["sampler.acceptance"] = row["sampler.accepted"] / counted
        row["sampler.proposals"] = total
        row["sampler.proposals_per_s"] = total / row["sampler.run_chain.total_s"]
        row["sampler.measured_share"] = row["sampler.measured_sweeps"] / (probe + chain_sweeps)
    if "iat" in extra:
        row["sampler.iat_sweeps"] = extra["iat"]
    kept = row.get("curves.points", 0.0)
    if kept:
        row["curves.kept_ratio"] = kept / (kept + row.get("curves.skipped", 0.0))


def measure(name: str, seed: int, seconds: float, trace: bool, workload) -> dict:
    from spans import Tracer
    from stats import median, spread
    from workloads import KNOWN_FAILURES, Gate

    gate = Gate(name)
    tracer = Tracer() if trace else None
    records = []
    started = time.monotonic()
    for index in range(pass_count(name, seconds, trace)):
        traced = trace and index % 2 == 1
        outputs, raw, scaled = {}, {}, {}
        if traced:
            tracer.run = index
            tracer.install()
        try:
            before = reference_loop()
            for label, step in workload.steps(index):
                t0 = time.perf_counter()
                outputs[label] = step()
                raw[label] = time.perf_counter() - t0
                after = reference_loop()
                scaled[label] = raw[label] * 2.0 * REFERENCE_S / (before + after)
                before = after
        finally:
            if traced:
                tracer.uninstall()
        extra = workload.check(gate, outputs)
        records.append({"pass": index, "traced": traced, "step_s": scaled, "raw_step_s": raw,
                        **extra})
        if time.monotonic() - started > _TIME_CAP_S:
            break

    plain = [r for r in records if not r["traced"]]
    result = {
        "workload": name,
        "seed": seed,
        "passes": records,
        "wall_s": pass_time(plain, "step_s"),
        "raw_wall_s": pass_time(plain, "raw_step_s"),
        "raw_pass_spread": spread(sum(r["raw_step_s"].values()) for r in plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "unexpected_failures": gate.unexpected,
        "failures": gate.summary(),
        "known_failures": KNOWN_FAILURES.get(name, {}),
    }
    if any("ess" in r for r in plain):
        # Effective samples per second of the `qpaths sample` call.
        result["ess_per_s"] = median(r["ess"] / r["step_s"]["chain"] for r in plain if "ess" in r)
    if trace:
        result["layer"] = _layer_metrics(name, seed, tracer, records)
        result["layer"]["sampler.ess_per_s"] = result.get("ess_per_s", 0.0)
        result["missing_wrappers"] = tracer.missing
    return result


def _layer_metrics(name: str, seed: int, tracer, records) -> dict:
    from ladder import LADDERS
    from stats import median

    traced = [r for r in records if r["traced"]]
    plain = [r for r in records if not r["traced"]]
    rows = tracer.layer_totals([r["pass"] for r in traced])
    for r in traced:
        _derive(rows[r["pass"]], r)
    keys = set().union(*(rows[r["pass"]] for r in traced))
    layer = {k: median(rows[r["pass"]].get(k, 0.0) for r in traced) for k in sorted(keys)}
    layer["trace.overhead_frac"] = pass_time(traced, "step_s") / pass_time(plain, "step_s") - 1.0
    if name in LADDERS:
        layer.update(LADDERS[name]())
    tracer.write(str(OUT / f"{name}-seed{seed}.spans.csv"))
    return layer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() in the parent just before the spawn")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    _load_package()
    from workloads import WORKLOADS

    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, str(workdir))
        raw_setup = time.monotonic() - args.spawned_at
        result = {"raw_setup_s": raw_setup,
                  "setup_s": raw_setup * REFERENCE_S / reference_loop()}
        if not args.setup_only:
            result.update(measure(args.workload, args.seed, args.seconds, bool(args.trace),
                                  workload))
            import numpy

            result["versions"] = {"python": platform.python_version(), "numpy": numpy.__version__}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
