"""Record one point of the benchmark trajectory as BENCH_<label>.json.

    python3 bench/trajectory.py --label 16
    python3 bench/trajectory.py --label 14 --checkout ../old-copy --commit f3f7e4a

For each workload in BENCHMARK.json this runs perfbench/run.py inside the
checkout (default: this repository): ``--trace 1`` at seeds 1, 2, 3 and the
held-out seed 7,340,033, then one ``--trace 0`` run at seed 1 for the
benchmark's ``run_seconds``.  About four minutes in all on a 2-core host.

The file holds, per workload, the median over seeds of each per-layer
time, the exact per-layer counts of each seed (a rerun of a seed gives the
same counts, so any difference between two files is a change in the work
done), the end-to-end metrics, and the wall seconds of every run; plus the
commit, a hash of ``src/laurentreal``, the Python version and the CPU count.
It is written to the output directory (default: the repository root), and
the deltas against the earlier file with the highest label there are
printed, naming each end-to-end metric past its BENCHMARK.json bound.
Exits 1, writing nothing, if a run fails or reports a wrong output.
Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
TRACE_SEEDS = (1, 2, 3, 7_340_033)  # the last is perfbench/run.py's HELD_OUT_SEED
TIMED_SEED = 1


def run(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, float]:
    """One perfbench run: its JSON result and its wall seconds."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    started = time.perf_counter()
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    wall = time.perf_counter() - started
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv[1:])} exited {done.returncode}: {done.stderr.strip()[-300:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{' '.join(argv[1:])} reported an incorrect run: {lines[:-1][-5:]}")
    return {name: m["value"] for name, m in result["metrics"].items()}, wall


def source_hash(checkout: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((checkout / "src" / "laurentreal").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit(checkout: Path) -> str | None:
    """The checkout's HEAD, marked dirty when src/ differs from it; None outside git."""
    try:
        head = subprocess.run(["git", "rev-parse", "--show-toplevel", "--short=12", "HEAD"],
                              cwd=checkout, capture_output=True, text=True, check=True).stdout.split()
        dirty = subprocess.run(["git", "status", "--porcelain", "--", "src"],
                               cwd=checkout, capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return None
    if Path(head[0]).resolve() != checkout.resolve():
        return None
    return head[1] + ("-dirty" if dirty else "")


def record(checkout: Path, benchmark: dict, label: int, commit: str | None) -> dict:
    times = {m["name"] for m in benchmark["per_layer"] if m["unit"] == "s"}
    workloads = {}
    for workload in (w["name"] for w in benchmark["workloads"]):
        traced, walls = [], []
        for seed in TRACE_SEEDS:
            metrics, wall = run(checkout, workload, seed, benchmark["run_seconds"], 1)
            traced.append(metrics)
            walls.append(round(wall, 2))
        end_to_end, timed_wall = run(checkout, workload, TIMED_SEED, benchmark["run_seconds"], 0)
        workloads[workload] = {
            "per_layer": {name: statistics.median(m[name] for m in traced)
                          for name in traced[0] if name in times},
            "counts": {name: {str(seed): m[name] for seed, m in zip(TRACE_SEEDS, traced)}
                       for name in traced[0] if name not in times},
            "end_to_end": end_to_end,
            "wall_s": {"trace": walls, "timed": round(timed_wall, 2)},
        }
        print(f"{workload}: traced runs {walls} s, timed run {timed_wall:.1f} s", file=sys.stderr)
    return {
        "label": label,
        "commit": commit,
        "src_sha256": source_hash(checkout),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "trace_seeds": list(TRACE_SEEDS),
        "timed_seed": TIMED_SEED,
        "run_seconds": benchmark["run_seconds"],
        "workloads": workloads,
    }


def change(old: float, new: float) -> str:
    return f"{old:.6g} -> {new:.6g}" + (f" ({(new - old) / old:+.1%})" if old else "")


def deltas(old: dict, new: dict, benchmark: dict) -> list[str]:
    """Lines comparing two trajectory points, worst news first."""
    bounds = {m["name"]: m for m in benchmark["end_to_end"]}
    past, lines = [], []
    for workload, now in new["workloads"].items():
        before = old["workloads"].get(workload)
        if before is None:
            continue
        for name, value in now["end_to_end"].items():
            was = before["end_to_end"][name]
            sign = 1 if bounds[name]["better"] == "lower" else -1
            worse = was and sign * (value - was) / was > bounds[name]["bound"]
            line = f"{workload}: {name} {change(was, value)}"
            (past if worse else lines).append(line + (f" PAST BOUND {bounds[name]['bound']:.0%}" if worse else ""))
        for name, value in now["per_layer"].items():
            if value or before["per_layer"][name]:
                lines.append(f"{workload}: {name} {change(before['per_layer'][name], value)}")
        for name, counts in now["counts"].items():
            if counts != before["counts"][name]:
                lines.append(f"{workload}: {name} differs: {before['counts'][name]} -> {counts}")
    return past + lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", type=int, required=True, help="names the file BENCH_<label>.json")
    parser.add_argument("--checkout", type=Path, default=REPO, help="the tree to measure")
    parser.add_argument("--commit", help="recorded commit (default: the checkout's git HEAD)")
    parser.add_argument("--out", type=Path, default=REPO, help="where BENCH_*.json files live")
    args = parser.parse_args(argv)
    benchmark = json.loads((args.checkout / "BENCHMARK.json").read_text())
    try:
        point = record(args.checkout, benchmark, args.label, args.commit or git_commit(args.checkout))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(point, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    labels = [p.stem.removeprefix("BENCH_") for p in args.out.glob("BENCH_*.json")]
    earlier = [int(label) for label in labels if label.isdigit() and int(label) < args.label]
    if earlier:
        previous = args.out / f"BENCH_{max(earlier)}.json"
        print(f"against {previous.name}:")
        print("\n".join(deltas(json.loads(previous.read_text()), point, benchmark)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
