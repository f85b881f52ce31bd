"""One run of one workload, in a fresh process started by run.py.

    python3 perfbench/worker.py --workload W --seed S --seconds N --trace 0|1

The program is imported first, from the checkout's src/ directory, and the
benchmark's own modules are imported and its inputs generated after that.
This process keeps the interpreter's defaults: no int-to-str digit limit,
recursion limit or gc change.

With --trace 0 the workload runs as a closed loop, one client and one
thread, in whole rounds until the jobs have been busy for --seconds of
wall-clock time.  Between rounds, spread evenly over the run, it measures
the set-up time SETUP_PROBES times (calibration.setup_time): each time a
fresh interpreter imports the program as this process did, timed against
a fresh interpreter that imports a fixed set of standard modules.

With --trace 1 one untimed warm-up round runs first, then each of a fixed
number of rounds runs twice on identical inputs, plain and with every
public function wrapped (tracing.py), alternating which goes first; call
and work counts repeat for a seed, and the busy-time difference of the two
passes is the tracing overhead.
Every job's output is checked by its oracle (oracles.py); a wrong output,
unexpected exit code or exception is a failed job and is never retried.
The last stdout line is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / ".out"
WALL_LIMIT_S = 120  # no new round starts after this much wall time
SETUP_PROBES = 16  # set-up measurements per timed run


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import laurentreal.cli

    if Path(laurentreal.cli.__file__).resolve().parent != ROOT / "src" / "laurentreal":
        print(f"error: imported {laurentreal.cli.__file__}, not the checkout's src/", file=sys.stderr)
        return 2

    import resource
    import shutil

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workdir = OUT / f"work-{args.workload}-{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            result = traced_run(args, workdir)
        else:
            result = timed_run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


class Pass:
    """Latencies and failures of the jobs run so far.

    ``seconds`` are reference seconds, ``wall`` the measured wall-clock
    seconds, and ``factors`` the calibration scale of each job.
    """

    def __init__(self) -> None:
        self.seconds: list[float] = []
        self.wall: list[float] = []
        self.factors: list[float] = []
        self.errors: list[str] = []

    @property
    def busy(self) -> float:
        return sum(self.seconds)


def execute(job):
    """Run one job; returns (seconds, error or None).  Only the program call is timed."""
    import oracles
    import tasks

    cli = sys.modules["laurentreal.cli"]
    seconds = 0.0
    try:
        if job.argv is not None:
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                start = time.perf_counter()
                try:
                    code = cli.main(job.argv)
                except SystemExit as exc:  # argparse rejects its input this way
                    code = exc.code
                finally:
                    seconds = time.perf_counter() - start
            return seconds, oracles.CLI_CHECKS[job.kind](job, code, out.getvalue())
        inputs = tasks.prepare(job.task, job.data)
        start = time.perf_counter()
        try:
            output = tasks.TASKS[job.task](*inputs)
        finally:
            seconds = time.perf_counter() - start
        return seconds, oracles.TASK_CHECKS[job.kind](job, output)
    except Exception as exc:  # a failed job is recorded, never retried
        return seconds, f"{type(exc).__name__}: {exc}"[:300]


def run_round(jobs, record: Pass, tracer=None) -> None:
    import calibration

    for job in jobs:
        for path, text in job.files.items():
            Path(path).write_text(text)
    before = calibration.slowness()
    for job in jobs:
        if tracer is not None:
            tracer.job = len(record.seconds)
        seconds, error = execute(job)
        after = calibration.slowness()
        scale = 2 / (before + after)
        before = after
        record.seconds.append(seconds * scale)
        record.wall.append(seconds)
        record.factors.append(scale)
        if error:
            record.errors.append(f"{job.kind}: {error}")
    for job in jobs:
        for path in job.files:
            Path(path).unlink()


def timed_run(args, workdir: Path) -> dict:
    import calibration
    from workloads import WORKLOADS, round_rng

    record = Pass()
    setups: list[tuple[float, float]] = []
    started = time.perf_counter()
    index = 0
    while sum(record.wall) < args.seconds and time.perf_counter() - started < WALL_LIMIT_S:
        jobs = WORKLOADS[args.workload](round_rng(args.workload, args.seed, index), workdir)
        run_round(jobs, record)
        index += 1
        while len(setups) < SETUP_PROBES and sum(record.wall) >= len(setups) * args.seconds / SETUP_PROBES:
            setups.append(calibration.setup_time(ROOT / "src"))
    while len(setups) < SETUP_PROBES:  # a run cut short still gets every measurement
        setups.append(calibration.setup_time(ROOT / "src"))
    return {"rounds": index, "attempted": len(record.seconds), "failed": len(record.errors),
            "errors": record.errors[:5], "seconds": record.seconds, "wall": record.wall,
            "setup_s": [ref for ref, _ in setups], "setup_wall_s": [wall for _, wall in setups]}


def traced_run(args, workdir: Path) -> dict:
    import tracing
    from workloads import TRACE_ROUNDS, WORKLOADS, round_rng

    def make(index: int):
        return WORKLOADS[args.workload](round_rng(args.workload, args.seed, index), workdir)

    def run_traced(jobs) -> int:
        patched = tracing.install(tracer)
        try:
            run_round(jobs, traced, tracer)
        finally:
            tracing.uninstall(patched)
        return len(patched)

    tracer = tracing.Tracer()
    warmup, plain, traced = Pass(), Pass(), Pass()
    # An untimed round first, so first-call warm-up falls in neither pass.  Then
    # each round runs plain and traced back to back, alternating which goes
    # first, so both passes see the same host and the same warm state.
    run_round(make(0), warmup)
    for index in range(TRACE_ROUNDS[args.workload]):
        jobs = make(index)
        if index % 2:
            binding_sites = run_traced(jobs)
            run_round(jobs, plain)
        else:
            run_round(jobs, plain)
            binding_sites = run_traced(jobs)
    tracer.write_spans(OUT / f"spans-{args.workload}.jsonl")
    metrics = tracer.metrics(traced.factors)
    metrics["trace.overhead_s"] = traced.busy - plain.busy
    passes = (warmup, plain, traced)
    errors = [error for record in passes for error in record.errors]
    errors += [f"layer {layer} never fired" for layer in tracer.unseen(args.workload)]
    return {"rounds": TRACE_ROUNDS[args.workload],
            "attempted": sum(len(record.seconds) for record in passes),
            "failed": sum(len(record.errors) for record in passes), "errors": errors[:5],
            "unseen": tracer.unseen(args.workload), "binding_sites": binding_sites,
            "spans": len(tracer.spans), "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
