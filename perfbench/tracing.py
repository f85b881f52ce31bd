"""Per-layer spans recorded from outside the program.

``install`` wraps the public functions of each laurentreal module and
rebinds every name that refers to them: the defining module, the package,
and each module that imported the function by name (``evaluate`` alone is
bound in five places).  Methods are wrapped on their class.  Each call
records a span (name, start, end, parent, job id) in memory; a layer's self
time is its span time minus the time of the spans it encloses, and the
wrapper's own bookkeeping is charged to neither.  Calls and work counts are
taken only at a layer's outermost call: a call made inside an open call of
the same layer (``certificate_to_json_dict`` formatting its rationals, a
function recursing through its module name) is part of that call, so its
bytes, tuples or terms are not counted twice.  Self times are kept per
job and reported in reference seconds with that job's calibration scale.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

from workloads import WORKLOADS

PACKAGE = "laurentreal"


def _count_mul(stats, args, result):
    if result is not NotImplemented:
        stats["term_pairs"] += len(args[0]) * len(args[1])


def _count_evaluate(stats, args, result):
    f = args[0]
    stats["terms"] += len(f)
    if f:
        support = f.support()
        stats["max_span"] = max(stats["max_span"], support[-1] - support[0])


def _count_expand(stats, args, result):
    stats["digits"] += len(result.digits)
    stats["exact"] += result.residual == 0


def _count_divide(stats, args, result):
    stats["quotient_terms"] += len(result)
    stats["divisible"] += 1


def _count_tuples(stats, args, result):
    stats["tuples"] += result if isinstance(result, int) else len(result)


def _text_bytes(value) -> int:
    if isinstance(value, tuple):  # format_decimal returns (text, exact)
        value = value[0]
    return len(value) if isinstance(value, str) else len(json.dumps(value))


def _count_parsed(stats, args, result):
    stats["bytes"] += _text_bytes(args[0])


def _count_serialized(stats, args, result):
    stats["bytes"] += _text_bytes(result)


def _count_trials(stats, args, result):
    stats["trials"] += result.trials


# (layer, defining module, attribute path, work counter)
TARGETS = [
    ("series.mul", "series", "LaurentSeries.__mul__", _count_mul),
    ("series.r_norm", "series", "LaurentSeries.r_norm", None),
    ("evaluation.evaluate", "evaluation", "evaluate", _count_evaluate),
    ("expansion.expand", "expansion", "expand", _count_expand),
    ("expansion.min_exponent", "expansion", "min_exponent", None),
    ("kernel.divide", "kernel", "divide", _count_divide),
    ("truncations.count", "truncations", "count_truncations", _count_tuples),
    ("truncations.enumerate", "truncations", "enumerate_truncations", _count_tuples),
    ("truncations.contains", "truncations", "TruncationSet.__contains__", None),
    ("truncations.validate", "truncations", "TruncationSet.validate", None),
    ("truncations.restrict", "truncations", "restrict", None),
    *[("formats.parse", "formats", name, _count_parsed) for name in (
        "parse_rational", "parse_series_text", "series_from_json_dict",
        "certificate_from_json_dict")],
    *[("formats.serialize", "formats", name, _count_serialized) for name in (
        "format_rational", "format_series_text", "series_to_json_dict",
        "certificate_to_json_dict", "format_decimal")],
    *[("verify.check", "verify", name, _count_trials) for name in (
        "check_multiplication_injective", "check_multiples_evaluate_to_zero",
        "check_kernel_divides_back", "check_expansion_surjectivity")],
    ("cli.main", "cli", "main", None),
]

LAYERS = list(dict.fromkeys(layer for layer, *_ in TARGETS))

# The workloads each layer must be seen on; a traced run fails otherwise.
ASSIGNED = {
    "series.mul": ("dense-long", "verify-suite", "sparse-wide"),
    "series.r_norm": ("dense-long", "sparse-wide"),
    "evaluation.evaluate": ("dense-long", "sparse-wide", "verify-suite"),
    "expansion.expand": ("dense-long", "verify-suite"),
    "expansion.min_exponent": ("sparse-wide",),
    "kernel.divide": ("dense-long", "sparse-wide"),
    **{layer: ("lattice-enum",) for layer in LAYERS if layer.startswith("truncations.")},
    "formats.parse": ("dense-long",),
    "formats.serialize": ("dense-long",),
    "verify.check": ("verify-suite",),
    "cli.main": tuple(WORKLOADS),
}

class Tracer:
    """Spans and per-layer counters of one traced pass."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (name, start_ns, end_ns, parent index, job id)
        self.job: int | None = None
        self._open: list[list[int]] = []  # [span index, enclosed ns] per open span
        self._depth: dict[str, int] = defaultdict(int)  # open calls per layer
        self.self_ns: dict[tuple[str, int], int] = defaultdict(int)  # (layer, job)
        self.stats: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))

    def wrap(self, layer: str, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = time.perf_counter_ns()
            index = len(tracer.spans)
            parent = tracer._open[-1][0] if tracer._open else None
            frame = [index, 0]
            tracer._open.append(frame)
            tracer.spans.append(None)
            outermost = tracer._depth[layer] == 0
            tracer._depth[layer] += 1
            result, failed = None, True
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = time.perf_counter_ns()
                tracer._open.pop()
                tracer._depth[layer] -= 1
                tracer.spans[index] = (layer, start, end, parent, tracer.job)
                tracer.self_ns[layer, tracer.job] += end - start - frame[1]
                if outermost:
                    stats = tracer.stats[layer]
                    stats["calls"] += 1
                    if counter is not None and not failed:
                        counter(stats, args, result)
                if tracer._open:
                    tracer._open[-1][1] += time.perf_counter_ns() - entered
            return result

        return traced

    def metrics(self, factors: list[float]) -> dict[str, float]:
        """Per-layer metrics; ``factors[job]`` scales that job's self time."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.stats[layer]["calls"]
            out[f"{layer}.self_s"] = 0.0
        for (layer, job), ns in self.self_ns.items():
            out[f"{layer}.self_s"] += ns / 1e9 * factors[job]
        out["series.mul.term_pairs"] = self.stats["series.mul"]["term_pairs"]
        out["evaluation.evaluate.terms"] = self.stats["evaluation.evaluate"]["terms"]
        out["evaluation.evaluate.max_span"] = self.stats["evaluation.evaluate"]["max_span"]
        expand = self.stats["expansion.expand"]
        out["expansion.expand.digits"] = expand["digits"]
        out["expansion.expand.exact_ratio"] = expand["exact"] / expand["calls"] if expand["calls"] else 0.0
        divide = self.stats["kernel.divide"]
        out["kernel.divide.quotient_terms"] = divide["quotient_terms"]
        out["kernel.divide.divisible_ratio"] = divide["divisible"] / divide["calls"] if divide["calls"] else 0.0
        out["truncations.count.tuples"] = self.stats["truncations.count"]["tuples"]
        out["truncations.enumerate.tuples"] = self.stats["truncations.enumerate"]["tuples"]
        out["formats.parse.bytes"] = self.stats["formats.parse"]["bytes"]
        out["formats.serialize.bytes"] = self.stats["formats.serialize"]["bytes"]
        out["verify.trials"] = self.stats["verify.check"]["trials"]
        return out

    def unseen(self, workload: str) -> list[str]:
        """Layers assigned to this workload that never fired."""
        return [layer for layer in LAYERS
                if workload in ASSIGNED[layer] and not self.stats[layer]["calls"]]

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start_ns", "end_ns", "parent", "job")
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every target at every binding site; returns what ``uninstall`` undoes."""
    modules = [m for name, m in sys.modules.items()
               if name == PACKAGE or name.startswith(PACKAGE + ".")]
    patched = []
    for layer, module, attr, counter in TARGETS:
        owner = sys.modules[f"{PACKAGE}.{module}"]
        cls_name, _, name = attr.rpartition(".")
        if cls_name:
            owner = getattr(owner, cls_name)
        original = owner.__dict__[name]
        wrapper = tracer.wrap(layer, original, counter)
        if cls_name:
            sites = [(owner, name)]
        else:
            sites = [(m, key) for m in modules for key, value in vars(m).items()
                     if value is original]
        for site, key in sites:
            setattr(site, key, wrapper)
            patched.append((site, key, original))
    return patched


def uninstall(patched: list[tuple]) -> None:
    for site, name, original in patched:
        setattr(site, name, original)
