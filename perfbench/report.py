"""Every metric of every workload, with units and sample counts, in one command.

    python3 perfbench/report.py [--seed N] [--trace]

Runs run.py once per workload for BENCHMARK.json's run_seconds, each in its
own processes, and prints its human-readable lines: the end-to-end metrics
and error_rate, plus, with --trace, the per-layer metrics of a traced run.
The seed kept out of tuning is run.HELD_OUT_SEED: --seed 7340033.  Exits 1
if any run failed or reported an incorrect output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import HERE, ROOT, WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true", help="also run the traced pass")
    args = parser.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1) if args.trace else (0,):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, cwd=ROOT,
            )
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload}: run failed: {done.stderr.strip()}")
                ok = False
                continue
            print("\n".join(lines[:-1]))
            ok = ok and json.loads(lines[-1])["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
