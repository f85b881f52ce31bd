"""The four workloads: seeded job generation from plain integers.

A run of a workload is a sequence of rounds.  Round i of a run with seed s is
built from ``random.Random(f"{workload}/{s}/{i}")`` alone, so the seed fixes
every input.  Every round holds the same job kinds at the same sizes; the
seed picks the values (coefficients, exponent positions, rationals, verify
seeds, lookup tuples).  Series are plain ``{exponent: coefficient}`` dicts,
and multiples of 1 - b*T are formed coefficientwise (g_k = h_k - b*h_(k-1)),
so no program code runs while inputs are made.  Why each workload exists and
its sizes are recorded in README.md next to this file.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Job:
    """One closed-loop request: a CLI call on generated files, or a library task.

    ``kind`` names the oracle that checks the output; ``data`` holds the
    generated inputs the oracle (and, for library tasks, the task) reads.
    """

    kind: str
    data: dict
    argv: list[str] | None = None
    files: dict[str, str] = field(default_factory=dict)
    task: str | None = None


def round_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


# ---------------------------------------------------------------- generators


def _digit(rng: random.Random) -> int:
    return rng.choice((-1, 1)) * rng.randint(1, 9)


def dense_series(rng: random.Random, terms: int) -> dict[int, int]:
    """``terms`` consecutive exponents from a low end in -20..0, nonzero digits."""
    lo = rng.randint(-20, 0)
    return {lo + k: _digit(rng) for k in range(terms)}


def sparse_series(rng: random.Random, terms: int, span: int) -> dict[int, int]:
    """``terms`` nonzero digits spread over exactly ``span`` exponents."""
    lo = rng.randint(-100, 100)
    inner = rng.sample(range(lo + 1, lo + span), terms - 2)
    return {n: _digit(rng) for n in (lo, lo + span, *inner)}


def times_generator(h: dict[int, int], base: int) -> dict[int, int]:
    """(1 - base*T) * h, coefficientwise."""
    g: dict[int, int] = {}
    for n, a in h.items():
        g[n] = g.get(n, 0) + a
        g[n + 1] = g.get(n + 1, 0) - base * a
    return {n: a for n, a in g.items() if a}


def perturbed(g: dict[int, int], exponent: int, delta: int) -> dict[int, int]:
    """g + delta*T**exponent; adding a nonzero multiple of a power of T leaves
    the kernel, so the result is never divisible."""
    out = dict(g)
    out[exponent] = out.get(exponent, 0) + delta
    return {n: a for n, a in out.items() if a}


def series_text(f: dict[int, int]) -> str:
    return "".join(f"{n} {f[n]}\n" for n in sorted(f))


def reduced_rational(rng: random.Random) -> tuple[int, int]:
    """p/q in lowest terms with a 7-digit q coprime to 10 and |p/q| < 10.

    Such a q makes the expansion non-terminating in bases 10 and 2, so the
    CLI expand jobs always emit exactly --max-digits digits.
    """
    while True:
        q = rng.randrange(10**6, 10**7)
        p = rng.randrange(1, 10 * q)
        if q % 2 and q % 5 and math.gcd(p, q) == 1:
            return rng.choice((-1, 1)) * p, q


def rational_arg(x: tuple[int, int]) -> str:
    return f"{x[0]}/{x[1]}"


# ------------------------------------------------------------------ verify-suite


def verify_suite_round(rng: random.Random, workdir: Path) -> list[Job]:
    jobs = []
    for r, base in (("1/2", 10), ("3/4", 2)):
        seed = rng.randrange(2**31)
        argv = ["verify", "--trials", "25", "--seed", str(seed), "--r", r, "--base", str(base)]
        jobs.append(Job("verify", {"trials": 25}, argv=argv))
    return jobs


# -------------------------------------------------------------------- dense-long

DENSE_TERMS = 1000
DENSE_DIGITS = 1000
DENSE_PRODUCT_TERMS = 500


def _cli_series_job(kind, workdir, name, series, argv_head, argv_tail, **data) -> Job:
    path = str(workdir / name)
    return Job(
        kind,
        {"series": series, **data},
        argv=[*argv_head, path, *argv_tail],
        files={path: series_text(series)},
    )


def dense_long_round(rng: random.Random, workdir: Path) -> list[Job]:
    jobs = []
    for r, base in (("1/2", 10), ("3/4", 2)):
        x = reduced_rational(rng)
        argv = ["expand", "--r", r, "--r-prime", f"1/{base}",
                "--max-digits", str(DENSE_DIGITS), "--", rational_arg(x)]
        jobs.append(Job("expand", {"x": x, "r": r, "base": base,
                                   "max_digits": DENSE_DIGITS}, argv=argv))
    jobs.append(_cli_series_job(
        "eval", workdir, "eval.txt", dense_series(rng, DENSE_TERMS),
        ["eval"], ["--decimal", "50"], base=10, decimal=50))
    multiple = times_generator(dense_series(rng, DENSE_TERMS - 1), 10)
    jobs.append(_cli_series_job(
        "kernel-check", workdir, "kc-multiple.txt", multiple,
        ["kernel-check"], ["--base", "10", "--json"], base=10))
    other = times_generator(dense_series(rng, DENSE_TERMS - 1), 10)
    low = min(other)
    other = perturbed(other, rng.randrange(low, low + DENSE_TERMS // 2), _digit(rng))
    jobs.append(_cli_series_job(
        "kernel-check", workdir, "kc-other.txt", other,
        ["kernel-check"], ["--base", "10", "--json"], base=10))
    jobs.append(_cli_series_job(
        "divide", workdir, "divide.txt",
        times_generator(dense_series(rng, DENSE_TERMS - 1), 10),
        ["divide"], ["--base", "10"], base=10))
    jobs.append(Job("product", {
        "f": dense_series(rng, DENSE_PRODUCT_TERMS),
        "g": dense_series(rng, DENSE_PRODUCT_TERMS),
        "r": (1, 2), "r_prime": (1, 10)}, task="product"))
    return jobs


# ------------------------------------------------------------------- sparse-wide

SPARSE_SPAN = (10_000, 50_000)
SPARSE_WIDEST_SPAN = (45_000, 50_000)  # evaluate/r_norm take the widest inputs
SPARSE_PRODUCT_SPAN = (10_000, 12_500)
# Two jobs each at the small and large ends put the p50 and p90 of a round
# inside a block of like-sized jobs instead of on the edge between two kinds.
SPARSE_EXPAND_EXPONENTS = (5_000, 5_000, 10_000, 20_000, 20_000)


def _sparse(rng: random.Random, span: tuple[int, int] = SPARSE_SPAN, terms=(3, 8)) -> dict[int, int]:
    return sparse_series(rng, rng.randint(*terms), rng.randint(*span))


def sparse_wide_round(rng: random.Random, workdir: Path) -> list[Job]:
    jobs = []
    for command, tail in (("kernel-check", ["--base", "10", "--json"]), ("divide", ["--base", "10"])):
        multiple = times_generator(_sparse(rng), 10)
        jobs.append(_cli_series_job(
            command, workdir, f"{command}-multiple.txt", multiple,
            [command], tail, base=10))
        other = times_generator(_sparse(rng), 10)
        other = perturbed(other, max(other), _digit(rng))
        jobs.append(_cli_series_job(
            command, workdir, f"{command}-other.txt", other,
            [command], tail, base=10))
    jobs.append(Job("evaluate-norm", {
        "f": _sparse(rng, SPARSE_WIDEST_SPAN, (8, 8)), "r": (1, 2), "r_prime": (1, 10)},
        task="evaluate_norm"))
    jobs.append(Job("product", {
        "f": _sparse(rng, SPARSE_PRODUCT_SPAN, (3, 5)),
        "g": _sparse(rng, SPARSE_PRODUCT_SPAN, (3, 5)),
        "r": (1, 2), "r_prime": (1, 10)}, task="product"))
    for e in SPARSE_EXPAND_EXPONENTS:
        x = (rng.choice((-1, 1)) * rng.randrange(1, 10**9), 10 ** (e + rng.randrange(100)))
        jobs.append(Job("expand-library", {
            "x": x, "r": (1, 2), "base": 10, "max_digits": 8}, task="expand"))
    return jobs


# ------------------------------------------------------------------ lattice-enum

ENUM_CAP = 10**10
# (m, r, c) with counts from 3.6e5 to 1.2e9; every one is below ENUM_CAP
COUNT_CONFIGS = [
    (6, (1, 2), (1, 1)), (6, (1, 2), (2, 1)), (7, (1, 2), (1, 1)),
    (7, (1, 2), (2, 1)), (8, (1, 2), (1, 1)), (7, (2, 3), (2, 1)),
    (8, (2, 3), (2, 1)),
]
LIST_CONFIGS = [(4, (1, 2), (1, 1)), (5, (1, 2), (1, 1))]  # 1,015 and 14,583 tuples
TASK_CONFIGS = [(4, (1, 2), (1, 1)), (4, (2, 3), (2, 1))]  # 1,015 and 895 tuples
LOOKUPS = 100


def integer_weights(m: int, r: tuple[int, int], c: tuple[int, int]) -> tuple[list[int], int]:
    """Weights w_n and budget B with sum |a_n| r**n <= c  iff  sum |a_n| w_n <= B."""
    (p, q), (u, v) = r, c
    return [v * p**n * q ** (m - n) for n in range(m + 1)], u * q**m


def _in_set_tuple(rng: random.Random, weights: list[int], budget: int) -> tuple[int, ...]:
    out, remaining = [], budget
    for w in weights:
        bound = remaining // w
        d = rng.randint(-bound, bound)
        out.append(d)
        remaining -= abs(d) * w
    return tuple(out)


def _out_of_set_tuple(rng: random.Random, weights: list[int], budget: int) -> tuple[int, ...]:
    while True:
        tup = tuple(rng.randint(-(budget // w) - 1, budget // w + 1) for w in weights)
        if sum(abs(a) * w for a, w in zip(tup, weights)) > budget:
            return tup


def _enumerate_argv(m: int, r: tuple[int, int], c: tuple[int, int]) -> list[str]:
    return ["enumerate", "--m", str(m), "--r", rational_arg(r), "--c", rational_arg(c),
            "--cap", str(ENUM_CAP)]


def lattice_enum_round(rng: random.Random, workdir: Path) -> list[Job]:
    jobs = []
    for m, r, c in rng.sample(COUNT_CONFIGS, len(COUNT_CONFIGS)):
        jobs.append(Job("count", {"m": m, "r": r, "c": c},
                        argv=[*_enumerate_argv(m, r, c), "--count-only"]))
    for m, r, c in LIST_CONFIGS:
        jobs.append(Job("listing", {"m": m, "r": r, "c": c}, argv=_enumerate_argv(m, r, c)))
    for m, r, c in TASK_CONFIGS:
        weights, budget = integer_weights(m, r, c)
        lookups = [(_in_set_tuple(rng, weights, budget), True) for _ in range(LOOKUPS)]
        lookups += [(_out_of_set_tuple(rng, weights, budget), False) for _ in range(LOOKUPS)]
        rng.shuffle(lookups)
        jobs.append(Job("lattice", {"m": m, "r": r, "c": c, "cap": ENUM_CAP,
                                    "lookups": lookups}, task="lattice"))
    return jobs


WORKLOADS = {
    "verify-suite": verify_suite_round,
    "dense-long": dense_long_round,
    "sparse-wide": sparse_wide_round,
    "lattice-enum": lattice_enum_round,
}

# Rounds in a traced run: fixed, so call and work counts repeat for a seed.
TRACE_ROUNDS = {"verify-suite": 10, "dense-long": 3, "sparse-wide": 3, "lattice-enum": 3}
