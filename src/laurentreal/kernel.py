"""The kernel ideal of evaluation at r_prime = 1/b: generator and exact division.

For an integer base b >= 2 the polynomial 1 - b*T evaluates to zero at
1/b and generates the full kernel among finitely supported series: a
series g evaluates to zero at 1/b exactly when synthetic division by
1 - b*T terminates with zero remainder.  Both membership routes are
implemented independently so their agreement can be tested.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .evaluation import evaluate
from .series import LaurentSeries, RadiusParams


class NotDivisibleError(ArithmeticError):
    """Division left a nonzero remainder; carries the witness.

    remainder and quotient_prefix satisfy g == poly * quotient_prefix + remainder.
    """

    def __init__(self, remainder: LaurentSeries, quotient_prefix: LaurentSeries):
        super().__init__(f"not divisible, remainder {remainder}")
        self.remainder = remainder
        self.quotient_prefix = quotient_prefix


@dataclass(frozen=True)
class KernelGenerator:
    """The degree-one kernel generator for the evaluation point 1/base.

    sign +1 is the normalized convention poly == 1 - base*T (constant term
    a unit, as the principal-ideal description requires); sign -1 gives the
    equally valid generator base*T - 1.  poly is derived from base and
    sign at construction, not passed.
    """

    base: int
    sign: int = 1
    poly: LaurentSeries = field(init=False)

    def __post_init__(self) -> None:
        if not isinstance(self.base, int) or self.base < 2:
            raise ValueError(f"unsupported base {self.base!r}; need an integer >= 2")
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        object.__setattr__(self, "poly", LaurentSeries({0: self.sign, 1: -self.sign * self.base}))

    @property
    def r_prime(self) -> Fraction:
        return Fraction(1, self.base)

    def flipped(self) -> KernelGenerator:
        """The same ideal's generator with the opposite sign convention."""
        return KernelGenerator(self.base, -self.sign)


def generator(b: int) -> KernelGenerator:
    """The sign-normalized kernel generator 1 - b*T for base b >= 2."""
    return KernelGenerator(b)


def inverse_truncation(gen: KernelGenerator, N: int) -> LaurentSeries:
    """Degree-N truncation of the formal inverse of the generator.

    For the normalized 1 - b*T this is the geometric prefix
    1 + b*T + ... + b**N * T**N, and the product with the generator
    telescopes to 1 - b**(N+1) * T**(N+1).
    """
    if not isinstance(N, int) or N < 0:
        raise ValueError(f"truncation order must be a nonnegative integer, got {N}")
    return LaurentSeries({k: gen.sign * gen.base**k for k in range(N + 1)})


def divide(g: LaurentSeries, gen: KernelGenerator) -> LaurentSeries:
    """Exact quotient h with gen.poly * h == g, if one exists.

    Synthetic division from the lowest exponent: the generator's constant
    term is a unit, so every quotient coefficient is an integer.  When g
    is divisible the quotient's top exponent is max(support(g)) - 1, so
    the division is declared failed as soon as the running remainder's
    valuation passes that point; the remainder is reported verbatim in
    the raised NotDivisibleError.
    """
    if not g:
        return LaurentSeries.zero()
    top = g.support()[-1]
    unit = gen.poly.coefficient(0)
    remainder = g
    quotient = LaurentSeries.zero()
    while remainder:
        low = remainder.support()[0]
        if low > top - 1:
            raise NotDivisibleError(remainder, quotient)
        term = LaurentSeries.term(remainder.coefficient(low) // unit, low)
        quotient = quotient + term
        remainder = remainder - gen.poly * term
    return quotient


def in_kernel(g: LaurentSeries, params: RadiusParams) -> bool:
    """Whether g evaluates to zero at r_prime (which must be 1/b, b >= 2)."""
    if params.r_prime.numerator != 1:
        raise ValueError(
            f"kernel support is restricted to r_prime = 1/b, got {params.r_prime}"
        )
    return evaluate(g, params) == 0
