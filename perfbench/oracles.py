"""Job oracles written in plain integer arithmetic.

Nothing here imports the program or calls a traced function: expected values
come from integer Horner sums, integer long division, integer synthetic
division, a direct convolution and a count over the integer weights by
dynamic programming.  Rationals are (numerator, denominator) pairs compared by cross
multiplication, so no huge gcd or int-to-str conversion is ever needed.
Program values are read only through plain attributes and ``items()``;
no program function is called.

Every check returns None when the output is right and a short reason when
it is not.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache

from workloads import integer_weights

VERIFY_PROPERTIES = (
    "multiplication by the generator is injective",
    "multiples of the generator evaluate to zero",
    "kernel elements divide back to their cofactor",
    "greedy expansion witnesses surjectivity",
)


# ----------------------------------------------------------------- arithmetic


def horner(series: dict[int, int], p: int, q: int) -> tuple[int, int]:
    """sum a_n (p/q)**n as an unreduced fraction (N, D), D > 0.

    Accumulates sum a_n p**(n-lo) q**(hi-n) over ascending exponents, with
    one power per gap so sparse series stay cheap.
    """
    if not series:
        return 0, 1
    exps = sorted(series)
    lo, hi = exps[0], exps[-1]
    acc, p_power, previous = 0, 1, lo
    for n in exps:
        gap = n - previous
        if gap:
            acc *= q**gap
            p_power *= p**gap
        acc += series[n] * p_power
        previous = n
    num, den = acc, 1
    if lo >= 0:
        num *= p**lo
    else:
        den *= p**-lo
    if hi >= 0:
        den *= q**hi
    else:
        num *= q**-hi
    return num, den


def norm(series: dict[int, int], r: tuple[int, int]) -> tuple[int, int]:
    return horner({n: abs(a) for n, a in series.items()}, *r)


def same(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return a[0] * b[1] == b[0] * a[1]


def times(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    return a[0] * b[0], a[1] * b[1]


def of(fraction) -> tuple[int, int]:
    return fraction.numerator, fraction.denominator


def parse_reduced(text: str) -> tuple[int, int] | None:
    """A "p/q" string as printed by the program: lowest terms, q > 0."""
    num, sep, den = text.partition("/")
    if not sep:
        return None
    p, q = int(num), int(den)
    if q <= 0 or math.gcd(p, q) != 1:
        return None
    return p, q


def convolution(f: dict[int, int], g: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for n, a in f.items():
        for k, b in g.items():
            out[n + k] = out.get(n + k, 0) + a * b
    return {n: a for n, a in out.items() if a}


def greedy_digits(
    x: tuple[int, int], base: int, max_digits: int
) -> tuple[list[tuple[int, int]], tuple[int, int]]:
    """Base-``base`` digits of x by integer long division, zeros skipped.

    Returns the signed digits (exponent, digit) starting at the least n with
    base**-n <= |x|, and the residual after the last one.
    """
    p, q = x
    sign = -1 if p < 0 else 1
    p = abs(p)
    if p == 0:
        return [], (0, 1)
    if p >= q:
        n, scaled = 0, q
        while scaled * base <= p:
            scaled *= base
            n -= 1
    else:
        # start below the answer from a bit-length estimate, then step up
        n = max(0, (q.bit_length() - p.bit_length() - 1) // base.bit_length())
        scaled = p * base**n
        while scaled < q:
            scaled *= base
            n += 1
    # invariant: |residual| * base**n == num / den
    num, den = (p * base**n, q) if n >= 0 else (p, q * base**-n)
    digits = []
    while True:
        digit, num = divmod(num, den)
        if digit:
            digits.append((n, sign * digit))
        if num == 0 or len(digits) == max_digits:
            break
        num *= base
        n += 1
    residual = (sign * num, den * base**n) if n >= 0 else (sign * num * base**-n, den)
    return digits, residual


def certificate_error(
    x: tuple[int, int], base: int, max_digits: int,
    digits: list[tuple[int, int]], residual: tuple[int, int],
) -> str | None:
    """Checks sum a_n base**-n + residual == x over the common denominator,
    then compares with the long-division digits."""
    value = horner(dict(digits), 1, base)
    total = (value[0] * residual[1] + residual[0] * value[1], value[1] * residual[1])
    if not same(total, x):
        return "digits plus residual do not sum to x"
    expected_digits, expected_residual = greedy_digits(x, base, max_digits)
    if digits != expected_digits:
        return "digits differ from long division"
    if not same(residual, expected_residual):
        return "residual differs from long division"
    return None


def divide_by_generator(g: dict[int, int], base: int) -> tuple[dict[int, int], dict[int, int]]:
    """Synthetic division of g by 1 - base*T from the lowest exponent.

    Returns (quotient, remainder): the recurrence q_k = g_k + base*q_(k-1)
    runs up to the top exponent minus one, skipping gaps where the carry is
    zero, and whatever is left sits at the top exponent.
    """
    if not g:
        return {}, {}
    exps = sorted(g)
    top = exps[-1]
    quotient: dict[int, int] = {}
    carry, i, n = 0, 0, exps[0]
    while n < top:
        carry = g.get(n, 0) + base * carry
        if carry:
            quotient[n] = carry
        n += 1
        if not carry:
            while exps[i] < n:
                i += 1
            n = exps[i]
    left = g[top] + base * carry
    return quotient, ({top: left} if left else {})


@lru_cache(maxsize=None)
def truncation_count(m: int, r: tuple[int, int], c: tuple[int, int]) -> int:
    """Tuples with sum |a_n| w_n <= B, by dynamic programming over the
    remaining budget from the last coordinate back.

    With ways[b] the count for the coordinates after n at budget b, the count
    including coordinate n is the sum of ways[b - |d| w_n] over
    |d| <= b // w_n, which is 2 * strided[b] - ways[b] for the stride-w_n
    prefix sum strided[b] = ways[b] + strided[b - w_n].
    """
    weights, budget = integer_weights(m, r, c)
    ways = [1] * (budget + 1)
    for w in reversed(weights):
        strided = ways[:]
        for b in range(w, budget + 1):
            strided[b] += strided[b - w]
        ways = [2 * s - t for s, t in zip(strided, ways)]
    return ways[budget]


def truncation_set_error(elements, m: int, r, c) -> str | None:
    """A set of the right size, strictly lex increasing, all within budget,
    is exactly the truncation set."""
    weights, budget = integer_weights(m, r, c)
    if len(elements) != truncation_count(m, r, c):
        return f"{len(elements)} tuples, expected {truncation_count(m, r, c)}"
    previous = None
    for tup in elements:
        if len(tup) != m + 1:
            return f"tuple {tup} has the wrong length"
        if previous is not None and not previous < tup:
            return "tuples not in strict lexicographic order"
        if sum(abs(a) * w for a, w in zip(tup, weights)) > budget:
            return f"tuple {tup} is over budget"
        previous = tup
    return None


# --------------------------------------------------------------------- checks


def _terms(report: dict) -> dict[int, int]:
    return {int(n): int(a) for n, a in report["terms"]}


def check_verify(job, code, out):
    trials = job.data["trials"]
    expected = "".join(f"PASS {name} (trials={trials}, failures=0)\n" for name in VERIFY_PROPERTIES)
    if code != 0 or out != expected:
        return f"exit {code}, unexpected report {out[:200]!r}"


def check_expand(job, code, out):
    if code != 0:
        return f"exit {code}"
    d = job.data
    cert = json.loads(out)
    if set(cert) != {"x", "r", "r_prime", "digits", "residual"}:
        return f"certificate keys {sorted(cert)}"
    x, residual = parse_reduced(cert["x"]), parse_reduced(cert["residual"])
    if x is None or residual is None or x != d["x"]:
        return "x or residual is not a reduced p/q equal to the input"
    if cert["r"] != d["r"] or cert["r_prime"] != f"1/{d['base']}":
        return "radius fields differ from the arguments"
    digits = [(n, a) for n, a in cert["digits"]]
    return certificate_error(d["x"], d["base"], d["max_digits"], digits, residual)


def check_eval(job, code, out):
    d = job.data
    value = horner(d["series"], 1, d["base"])
    lines = out.splitlines()
    if code != 0 or len(lines) != 2:
        return f"exit {code}, {len(lines)} lines"
    printed = parse_reduced(lines[0])
    if printed is None or not same(printed, value):
        return "value differs from integer Horner"
    k = d["decimal"]
    scaled, rest = divmod(abs(value[0]) * 10**k, value[1])
    digits = str(scaled).rjust(k + 1, "0")
    sign = "-" if value[0] < 0 else ""
    expected = f"{sign}{digits[:-k]}.{digits[-k:]} ({'truncated' if rest else 'exact'})"
    if lines[1] != expected:
        return f"decimal line {lines[1][:80]!r}"


def check_kernel_check(job, code, out):
    d = job.data
    quotient, remainder = divide_by_generator(d["series"], d["base"])
    zero = horner(d["series"], 1, d["base"])[0] == 0
    report = json.loads(out)
    division = report["division"]
    if code != 0 or report["base"] != d["base"] or report["routes_agree"] is not True:
        return f"exit {code} or report header {report['base']}, {report['routes_agree']}"
    if report["evaluates_to_zero"] is not zero or division["divisible"] is not (not remainder):
        return "membership differs from the oracle"
    if remainder:
        return None if _terms(division["remainder"]) == remainder else "remainder differs"
    return None if _terms(division["quotient"]) == quotient else "quotient differs"


def check_divide(job, code, out):
    quotient, remainder = divide_by_generator(job.data["series"], job.data["base"])
    expected_code, expected = (3, remainder) if remainder else (0, quotient)
    printed = {}
    for line in out.splitlines():
        n, a = line.split()
        printed[int(n)] = int(a)
    if code != expected_code or printed != expected or sorted(printed) != list(printed):
        return f"exit {code}, printed series differs"


def check_count(job, code, out):
    d = job.data
    if code != 0 or out != f"{truncation_count(d['m'], d['r'], d['c'])}\n":
        return f"exit {code}, count {out.strip()[:40]}"


def check_listing(job, code, out):
    d = job.data
    if code != 0:
        return f"exit {code}"
    elements = [tuple(int(a) for a in line.split(",")) for line in out.splitlines()]
    return truncation_set_error(elements, d["m"], d["r"], d["c"])


def check_product(job, result):
    d = job.data
    f, g, r, rp = d["f"], d["g"], d["r"], d["r_prime"]
    fg = convolution(f, g)
    if dict(result["product"].items()) != fg:
        return "product coefficients differ from the convolution"
    ev_f, ev_g = horner(f, *rp), horner(g, *rp)
    values = [of(v) for v in result["values"]]
    if not (same(values[0], ev_f) and same(values[1], ev_g) and same(values[2], times(ev_f, ev_g))):
        return "evaluations differ from integer Horner"
    norms = [of(v) for v in result["norms"]]
    if not all(same(a, b) for a, b in zip(norms, (norm(f, r), norm(g, r), norm(fg, r)))):
        return "norms differ from integer Horner"
    if result["homomorphism"] is not True or result["submultiplicative"] is not True:
        return "task reported a failed product law"


def check_evaluate_norm(job, result):
    d = job.data
    value, weighted = result
    if not same(of(value), horner(d["f"], *d["r_prime"])):
        return "evaluation differs from integer Horner"
    if not same(of(weighted), norm(d["f"], d["r"])):
        return "norm differs from integer Horner"


def check_expand_library(job, result):
    """Also checks the derived fields: digit bound 1 + b, exponent floor at the
    first digit, norm budget (1 + b) r**floor / (1 - r)."""
    d = job.data
    (p, q), b = d["r"], d["base"]
    if not same(of(result.target), d["x"]):
        return "certificate target differs from x"
    error = certificate_error(d["x"], b, d["max_digits"], list(result.digits), of(result.residual))
    if error:
        return error
    floor = result.digits[0][0]
    tail = horner({floor: 1 + b}, p, q)
    if result.exponent_floor != floor or not same(of(result.digit_bound), (1 + b, 1)):
        return "exponent floor or digit bound differs"
    if not same(of(result.norm_budget), (tail[0] * q, tail[1] * (q - p))):
        return "norm budget differs"


def check_lattice(job, result):
    d = job.data
    m, r, c = d["m"], d["r"], d["c"]
    error = truncation_set_error(result["elements"], m, r, c)
    error = error or truncation_set_error(result["restricted"], m - 1, r, c)
    if error:
        return error
    if result["restriction_matches"] is not True:
        return "restrict(level m) differs from the level m-1 enumeration"
    if result["hits"] != [expected for _, expected in d["lookups"]]:
        return "membership lookups differ"


CLI_CHECKS = {
    "verify": check_verify,
    "expand": check_expand,
    "eval": check_eval,
    "kernel-check": check_kernel_check,
    "divide": check_divide,
    "count": check_count,
    "listing": check_listing,
}
TASK_CHECKS = {
    "product": check_product,
    "evaluate-norm": check_evaluate_norm,
    "expand-library": check_expand_library,
    "lattice": check_lattice,
}
