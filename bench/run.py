"""qpaths benchmark: four workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload exact --seed 1 --seconds 16 --trace 0
    python3 bench/run.py --workload all --seed 1

Each workload runs in its own single-threaded Python process (worker.py)
that imports the package from ./src of this checkout. With --trace 0 the
run reports the end-to-end metrics of BENCHMARK.json; set-up time is the
median over several fresh processes. Times are scaled to a fixed machine
speed with a reference loop timed around each step (see worker.py); the
raw times are printed next to them. With --trace 1 it reports the
per-layer metrics, from wrappers installed around the package's public
functions. Every output is checked; the last line of standard output is
one JSON object with correct, attempted, failed and metrics. A fuller
record of the run, with provenance, goes to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from stats import median, spread

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
WORKLOADS = ("exact", "sample", "arctic", "tangent")
# Fresh processes timed for set-up, besides the measured one.
_SETUP_PROBES = 4
_CHILD_TIMEOUT_S = 170
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    pass


def spawn(args: list[str]) -> dict:
    """Run worker.py to completion and return its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED="0", **{v: "1" for v in _THREAD_VARS})
    cmd = [sys.executable, str(ROOT / "bench" / "worker.py"), *args]
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=_CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def provenance() -> dict:
    sha = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        sha = ref
        if ref.startswith("ref: "):
            path = ROOT / ".git" / ref[5:]
            if path.is_file():
                sha = path.read_text().strip()
            else:
                packed = ROOT / ".git" / "packed-refs"
                for line in packed.read_text().splitlines() if packed.is_file() else ():
                    if line.endswith(" " + ref[5:]):
                        sha = line.split()[0]
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"git_sha": sha, "nproc": os.cpu_count(), "cpu": cpu,
            "platform": platform.platform()}


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    base = ["--workload", name, "--seed", str(seed)]
    probes = []
    if not trace:
        probes = [spawn(base + ["--setup-only"]) for _ in range(_SETUP_PROBES)]
    result = spawn(base + ["--seconds", str(seconds), "--trace", str(int(trace))])
    probes.append(dict(result))
    result["setup_s"] = median(p["setup_s"] for p in probes)
    result["raw_setup_s"] = median(p["raw_setup_s"] for p in probes)
    result["setup_spread"] = spread(p["setup_s"] for p in probes)
    result["failed_frac"] = result["failed"] / result["attempted"]
    return result


def metrics_of(result: dict, spec: dict, trace: bool) -> dict:
    if trace:
        return {m["name"]: {"value": result["layer"].get(m["name"], 0.0), "unit": m["unit"]}
                for m in spec["per_layer"]}
    return {m["name"]: {"value": result[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]}


def report(name: str, result: dict, metrics: dict) -> None:
    for metric, v in metrics.items():
        print(f"{name:8s} {metric:44s} {v['value']:>16.6g} {v['unit']}")
    extra = [("raw_setup_s", result["raw_setup_s"], "s"), ("raw_wall_s", result["raw_wall_s"], "s"),
             ("failed_frac", result["failed_frac"], "ratio")]
    if "ess_per_s" in result:
        extra.append(("ess_per_s", result["ess_per_s"], "1/s"))
    for metric, value, unit in extra:
        print(f"{name:8s} {metric:44s} {value:>16.6g} {unit}")
    print(f"{name:8s} {result['attempted']} operations, {result['failed']} failed "
          f"({result['unexpected_failures']} not in the known-failure list)")
    for check, info in result["failures"].items():
        print(f"{name:8s}   failed {check}: {info['count']}  e.g. {info['examples'][0]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=16)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qpaths" / "__init__.py").is_file():
        print(f"error: no qpaths package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    trace = bool(args.trace)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    OUT.mkdir(parents=True, exist_ok=True)
    info = provenance()
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, trace)
            metrics = metrics_of(result, spec, trace)
            report(name, result, metrics)
            record = {**info, "seconds": args.seconds, "trace": args.trace,
                      "metrics": metrics, **result}
            path = OUT / f"{name}-seed{args.seed}-trace{args.trace}.json"
            path.write_text(json.dumps(record, indent=1) + "\n")
            summary["correct"] &= result["unexpected_failures"] == 0
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            prefix = f"{name}." if len(names) > 1 else ""
            summary["metrics"].update({prefix + k: v for k, v in metrics.items()})
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
