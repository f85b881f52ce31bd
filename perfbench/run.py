"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from a checkout of the repository; the program is imported from the
checkout's src/ directory and needs no build.  Workloads: verify-suite,
dense-long, sparse-wide, lattice-enum (see README.md next to this file).

With --trace 0 it reports the end-to-end metrics: jobs_per_s, job_p50_ms,
job_p90_ms, setup_s (median of the worker's set-up measurements, each a fresh
interpreter importing the program timed against a reference one; see
calibration.py) and peak_rss_mb.  With --trace 1 it reports the
per-layer metrics that BENCHMARK.json lists, from tracing.py.  Times are in reference seconds, scaled
from wall-clock time by a calibration loop run next to each measurement
(calibration.py); the wall-clock figures are printed alongside.
Human-readable lines with units and sample counts come first; the last stdout line is the JSON result
``{"correct", "attempted", "failed", "metrics"}``.  error_rate is
``failed / attempted`` and is printed with the other lines.  In a directory
without the program it exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
TIMEOUT_S = 170  # the whole run, set-up probes included, ends within this
# Seeds 1-18 were used while sizes, run length and bounds were tuned.  This
# seed was not: a later gain should also hold on it
# (python3 perfbench/report.py --seed 7340033).
HELD_OUT_SEED = 7_340_033


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def start_worker(extra: list[str]) -> dict:
    """Start the worker in a fresh process and return its JSON result."""
    done = subprocess.run([sys.executable, str(WORKER), *extra],
                          capture_output=True, text=True, timeout=TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {done.returncode}: {done.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(result: dict, seconds: list[float], setups: list[float]) -> dict:
    """Metric name -> (value, unit), from per-job and per-process set-up times."""
    return {
        "jobs_per_s": ((result["attempted"] - result["failed"]) / sum(seconds), "1/s"),
        "job_p50_ms": (percentile(seconds, 50) * 1000, "ms"),
        "job_p90_ms": (percentile(seconds, 90) * 1000, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MiB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "laurentreal" / "__init__.py").is_file():
        return fail(f"no program at {ROOT / 'src' / 'laurentreal'}; run from a repository checkout")

    run_args = ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        result = start_worker(run_args)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        return fail(str(exc))

    attempted, failed = result["attempted"], result["failed"]
    name = args.workload
    print(f"{name}: seed {args.seed}, {result['rounds']} rounds, {attempted} jobs")
    for error in result["errors"]:
        print(f"{name}: FAILED {error}")
    if args.trace:
        per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        print(f"{name}: {result['binding_sites']} binding sites wrapped, {result['spans']} spans")
        metrics = {m["name"]: (result["metrics"][m["name"]], m["unit"]) for m in per_layer}
        notes = {key: f"{result['rounds']} rounds" for key in metrics}
    else:
        metrics = end_to_end(result, result["seconds"], result["setup_s"])
        wall = end_to_end(result, result["wall"], result["setup_wall_s"])
        notes = {key: f"n={attempted} jobs, wall-clock {wall[key][0]:.6g}" for key in metrics}
        notes["setup_s"] = (f"n={len(result['setup_s'])} measurements, "
                            f"wall-clock {wall['setup_s'][0]:.6g}")
        notes["peak_rss_mb"] = "n=1 process"
        print(f"{name}: error_rate = {failed / attempted:.6g} (n={attempted} jobs)")
    for key, (value, unit) in metrics.items():
        print(f"{name}: {key} = {value:.6g} {unit} ({notes[key]})")
    print(json.dumps({
        "correct": failed == 0 and not result.get("unseen"),
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
