"""Command-line front-end: expand, eval, kernel-check, divide, enumerate, verify.

Exit codes: 0 success, 2 usage or parse failure, 3 division left a
remainder, 4 enumeration cardinality cap exceeded, 5 property failure.
Reports are deterministic for a fixed seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import formats
from .evaluation import evaluate
from .expansion import expand
from .kernel import NotDivisibleError, divide, generator_at
from .series import RadiusParams
from .truncations import CardinalityCapError, DEFAULT_CAP, count_truncations, enumerate_truncations
from .verify import run_exactness_suite

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NOT_DIVISIBLE = 3
EXIT_CAP_EXCEEDED = 4
EXIT_PROPERTY_FAILURE = 5


def r_prime_arg(text: str | None, base: int | None = None) -> Fraction:
    """The evaluation point that --r-prime or --base b (r' = 1/b) selects; default 1/10."""
    if base is not None and base < 2:
        raise ValueError(f"--base must be an integer >= 2, got {base}")
    if text is None:
        return Fraction(1, 10 if base is None else base)
    r_prime = formats.parse_rational(text)
    if base is not None and r_prime != Fraction(1, base):
        raise ValueError(f"--base {base} inconsistent with --r-prime {r_prime}")
    return r_prime


def integer(text: str) -> int:
    """The type of the integer flags; argparse names it in its error message."""
    return formats.parse_int(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first call and shared after it.

    Callers must not mutate it.  Reuse is safe because parse_args keeps no
    state between calls: no flag appends or has a mutable default, and the
    help width is read only when help is formatted.
    """
    # allow_abbrev=False: a prefix such as --r must not silently stand for --r-prime
    parser = argparse.ArgumentParser(
        prog="laurentreal",
        description="Exact arithmetic for norm-bounded integral Laurent series.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, summary: str, handler) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        p.set_defaults(handler=handler)
        return p

    def add_r(p: argparse.ArgumentParser) -> None:
        p.add_argument("--r", default="1/2", help="norm radius as p/q (default 1/2)")

    def add_r_prime(p: argparse.ArgumentParser, base: bool) -> None:
        p.add_argument("--r-prime", dest="r_prime", help="evaluation point as p/q (default 1/10)")
        if base:
            p.add_argument("--base", type=integer, help="shorthand for --r-prime 1/base")

    p_expand = add_command("expand", "greedy digit expansion of a rational", cmd_expand)
    p_expand.add_argument("x", help="target rational as p/q")
    add_r(p_expand)
    add_r_prime(p_expand, base=False)
    p_expand.add_argument("--max-digits", dest="max_digits", type=integer, default=40)

    p_eval = add_command("eval", "evaluate a series file at r_prime", cmd_eval)
    p_eval.add_argument("file", help="series file (text format; blank file is zero)")
    add_r_prime(p_eval, base=False)
    p_eval.add_argument("--format", choices=("text", "json"), default="text")
    p_eval.add_argument("--decimal", type=integer, metavar="N",
                        help="also print N decimal digits with an exactness marker")
    p_eval.add_argument("--json", action="store_true")

    p_check = add_command("kernel-check", "test kernel membership both ways", cmd_kernel_check)
    p_check.add_argument("file")
    add_r_prime(p_check, base=True)
    p_check.add_argument("--json", action="store_true")

    p_div = add_command("divide", "divide a series file by 1 - base*T", cmd_divide)
    p_div.add_argument("file")
    add_r_prime(p_div, base=True)

    p_enum = add_command("enumerate", "list a finite truncation set", cmd_enumerate)
    p_enum.add_argument("--m", type=integer, required=True, help="truncation degree")
    add_r(p_enum)
    p_enum.add_argument("--c", required=True, help="norm budget as p/q")
    p_enum.add_argument("--cap", type=integer, default=DEFAULT_CAP)
    p_enum.add_argument("--count-only", dest="count_only", action="store_true")

    p_verify = add_command("verify", "run the seeded exactness property suite", cmd_verify)
    add_r(p_verify)
    add_r_prime(p_verify, base=True)
    p_verify.add_argument("--trials", type=integer, default=1000)
    p_verify.add_argument("--seed", type=integer, default=42)
    p_verify.add_argument("--max-digits", dest="max_digits", type=integer, default=40)
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(handler=cmd_verify)

    return parser


def _load_series(path: str, fmt: str = "text"):
    with open(path) as handle:
        text = handle.read()
    if fmt == "json":
        try:
            data = json.loads(text)
        except RecursionError:
            raise ValueError("series JSON is nested too deeply") from None
        return formats.series_from_json_dict(data)
    return formats.parse_series_text(text)


def cmd_expand(args: argparse.Namespace) -> int:
    params = RadiusParams(formats.parse_rational(args.r), r_prime_arg(args.r_prime))
    x = formats.parse_rational(args.x)
    cert = expand(x, params, args.max_digits)
    print(json.dumps(formats.certificate_to_json_dict(cert), sort_keys=True))
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    r_prime = r_prime_arg(args.r_prime)
    series = _load_series(args.file, args.format)
    value = evaluate(series, r_prime)
    # built in full before printing, so a bad --decimal leaves stdout empty
    report = {"value": formats.format_rational(value)}
    if args.decimal is not None:
        report["decimal"], report["exact"] = formats.format_decimal(value, args.decimal)
    if args.json:
        print(json.dumps(report, sort_keys=True))
        return EXIT_OK
    print(report["value"])
    if args.decimal is not None:
        print(f"{report['decimal']} ({'exact' if report['exact'] else 'truncated'})")
    return EXIT_OK


def cmd_kernel_check(args: argparse.Namespace) -> int:
    r_prime = r_prime_arg(args.r_prime, args.base)
    gen = generator_at(r_prime)
    series = _load_series(args.file)
    member = evaluate(series, r_prime) == 0
    try:
        quotient = divide(series, gen)
        division = {"divisible": True, "quotient": formats.series_to_json_dict(quotient)}
    except NotDivisibleError as exc:
        division = {
            "divisible": False,
            "remainder": formats.series_to_json_dict(exc.remainder),
        }
    agree = member == division["divisible"]
    report = {
        "base": gen.base,
        "evaluates_to_zero": member,
        "division": division,
        "routes_agree": agree,
    }
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        print(f"evaluates to zero at 1/{gen.base}: {member}")
        print(f"divisible by 1 - {gen.base}*T: {division['divisible']}")
        print(f"routes agree: {agree}")
    return EXIT_OK if agree else EXIT_PROPERTY_FAILURE


def cmd_divide(args: argparse.Namespace) -> int:
    gen = generator_at(r_prime_arg(args.r_prime, args.base))
    series = _load_series(args.file)
    try:
        quotient = divide(series, gen)
    except NotDivisibleError as exc:
        print(f"not divisible by 1 - {gen.base}*T; remainder follows", file=sys.stderr)
        sys.stdout.write(formats.format_series_text(exc.remainder))
        return EXIT_NOT_DIVISIBLE
    sys.stdout.write(formats.format_series_text(quotient))
    return EXIT_OK


def cmd_enumerate(args: argparse.Namespace) -> int:
    r = formats.parse_rational(args.r)
    c = formats.parse_rational(args.c)
    if not 0 < r < 1:
        raise ValueError(f"--r must lie in (0, 1), got {r}")
    # enumeration never reads r_prime; r / 2 only fills RadiusParams' slot below r
    params = RadiusParams(r, r / 2, c)
    if args.count_only:
        print(count_truncations(args.m, params, args.cap))
        return EXIT_OK
    truncations = enumerate_truncations(args.m, params, args.cap)
    sys.stdout.writelines(",".join(map(str, tup)) + "\n" for tup in truncations)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    params = RadiusParams(formats.parse_rational(args.r), r_prime_arg(args.r_prime, args.base))
    results = run_exactness_suite(
        params,
        trials=args.trials,
        seed=args.seed,
        max_digits=args.max_digits,
    )
    if args.json:
        report = {
            "seed": args.seed,
            "trials": args.trials,
            "r": formats.format_rational(params.r),
            "r_prime": formats.format_rational(params.r_prime),
            "base": generator_at(params.r_prime).base,
            "properties": [r.to_dict() for r in results],
            "passed": all(r.passed for r in results),
        }
        print(json.dumps(report, sort_keys=True))
    else:
        for result in results:
            status = "PASS" if result.passed else "FAIL"
            print(f"{status} {result.name} (trials={result.trials}, failures={result.failures})")
    return EXIT_OK if all(r.passed for r in results) else EXIT_PROPERTY_FAILURE


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except CardinalityCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP_EXCEEDED
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
