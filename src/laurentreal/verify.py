"""Seeded property runs checking the injection / kernel / surjection triple.

At the evaluation point 1/b the claims under test are: multiplying by the
generator 1 - b*T is injective, every multiple of it evaluates to zero,
every such multiple divides back to its cofactor, and the greedy expansion
recovers any rational target up to its certified residual.  Together these
exercise, at desk scale, the exactness of

    0 -> series --(1 - b*T)--> series --evaluate--> rationals -> 0

restricted to finitely supported inputs.  All comparisons are exact; a
seed fixes every random draw, so reports are reproducible byte for byte.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .evaluation import evaluate
from .expansion import expand, series_of
from .kernel import KernelGenerator, NotDivisibleError, divide, generator_at
from .series import LaurentSeries, RadiusParams


class PropertyResult:
    """Outcome of one seeded property: trial and failure counts, first examples."""

    def __init__(
        self, name: str, trials: int, failures: int = 0, examples: list[str] | None = None
    ):
        self.name = name
        self.trials = trials
        self.failures = failures
        self.examples = [] if examples is None else examples

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def record_failure(self, detail: str) -> None:
        self.failures += 1
        if len(self.examples) < 5:
            self.examples.append(detail)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "trials": self.trials,
            "failures": self.failures,
            "examples": self.examples,
            "passed": self.passed,
        }


def random_series(
    rng: random.Random,
    min_exp: int = -4,
    max_exp: int = 8,
    max_coeff: int = 50,
    max_terms: int = 6,
) -> LaurentSeries:
    coeffs: dict[int, int] = {}
    for _ in range(rng.randint(0, max_terms)):
        coeffs[rng.randint(min_exp, max_exp)] = rng.randint(-max_coeff, max_coeff)
    return LaurentSeries._trusted({n: a for n, a in coeffs.items() if a})


def random_nonzero_series(rng: random.Random, **kwargs) -> LaurentSeries:
    while True:
        s = random_series(rng, **kwargs)
        if s:
            return s


def random_rational(rng: random.Random, magnitude: int = 10**6) -> Fraction:
    return Fraction(rng.randint(-magnitude, magnitude), rng.randint(1, magnitude))


def run_exactness_suite(
    params: RadiusParams,
    trials: int = 1000,
    seed: int = 42,
    max_digits: int = 40,
) -> list[PropertyResult]:
    """Run the four exactness properties; trials < 1 or r_prime != 1/b raise ValueError."""
    if not isinstance(trials, int) or trials < 1:
        raise ValueError(f"trials must be a positive integer, got {trials}")
    gen = generator_at(params.r_prime)
    return [
        check_multiplication_injective(gen, trials, seed),
        check_multiples_evaluate_to_zero(gen, params, trials, seed),
        check_kernel_divides_back(gen, trials, seed),
        check_expansion_surjectivity(params, trials, seed, max_digits),
    ]


def check_multiplication_injective(
    gen: KernelGenerator, trials: int, seed: int
) -> PropertyResult:
    """f != g implies gen.poly * f != gen.poly * g (via the nonzero form)."""
    rng = random.Random(seed)
    result = PropertyResult("multiplication by the generator is injective", trials)
    for _ in range(trials):
        h = random_nonzero_series(rng)
        if not gen.poly * h:
            result.record_failure(f"killed {h}")
    return result


def check_multiples_evaluate_to_zero(
    gen: KernelGenerator, params: RadiusParams, trials: int, seed: int
) -> PropertyResult:
    rng = random.Random(seed + 1)
    result = PropertyResult("multiples of the generator evaluate to zero", trials)
    for _ in range(trials):
        h = random_series(rng)
        if evaluate(gen.poly * h, params) != 0:
            result.record_failure(f"evaluate((1 - {gen.base}T) * ({h})) != 0")
    return result


def check_kernel_divides_back(
    gen: KernelGenerator, trials: int, seed: int
) -> PropertyResult:
    """Every constructed kernel element divides back to exactly its cofactor."""
    rng = random.Random(seed + 2)
    result = PropertyResult("kernel elements divide back to their cofactor", trials)
    for _ in range(trials):
        h = random_series(rng)
        g = gen.poly * h
        try:
            quotient = divide(g, gen)
        except NotDivisibleError as exc:
            result.record_failure(f"{g} not divisible, remainder {exc.remainder}")
            continue
        if quotient != h:
            result.record_failure(f"divide({g}) = {quotient}, expected {h}")
    return result


def check_expansion_surjectivity(
    params: RadiusParams, trials: int, seed: int, max_digits: int = 40
) -> PropertyResult:
    """expand + evaluate recovers each target; the certificate enforces the residual bound."""
    rng = random.Random(seed + 3)
    result = PropertyResult("greedy expansion witnesses surjectivity", trials)
    for _ in range(trials):
        x = random_rational(rng)
        cert = expand(x, params, max_digits)
        if evaluate(series_of(cert), params) + cert.residual != x:
            result.record_failure(f"round trip failed for {x}")
    return result
