"""The kernel ideal of evaluation at r_prime = 1/b: generator and exact division.

For an integer base b >= 2 the polynomial 1 - b*T evaluates to zero at
1/b and generates the full kernel among finitely supported series: a
series g evaluates to zero at 1/b exactly when long division by
1 - b*T leaves zero remainder.  Both membership routes are
implemented independently so their agreement can be tested.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction

from .evaluation import evaluate
from .series import FrozenRecord, LaurentSeries, RadiusParams


class NotDivisibleError(ArithmeticError):
    """Division left a nonzero remainder; carries the witness.

    remainder and quotient_prefix satisfy g == poly * quotient_prefix + remainder.
    """

    def __init__(self, remainder: LaurentSeries, quotient_prefix: LaurentSeries):
        super().__init__(f"not divisible, remainder {remainder}")
        self.remainder = remainder
        self.quotient_prefix = quotient_prefix


class KernelGenerator(FrozenRecord):
    """The degree-one kernel generator for the evaluation point 1/base.

    sign +1 is the normalized convention poly == 1 - base*T (constant term
    a unit, as the principal-ideal description requires); sign -1 gives the
    equally valid generator base*T - 1.  poly is derived from base and
    sign at construction, not passed.
    """

    _fields = ("base", "sign", "poly")

    def __init__(self, base: int, sign: int = 1):
        if not isinstance(base, int) or base < 2:
            raise ValueError(f"unsupported base {base!r}; need an integer >= 2")
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign}")
        self._store(base=base, sign=sign, poly=LaurentSeries({0: sign, 1: -sign * base}))

    def flipped(self) -> KernelGenerator:
        """The same ideal's generator with the opposite sign convention."""
        return KernelGenerator(self.base, -self.sign)


def generator(b: int) -> KernelGenerator:
    """The sign-normalized kernel generator 1 - b*T for base b >= 2."""
    return KernelGenerator(b)


def generator_at(r_prime: Fraction) -> KernelGenerator:
    """The generator 1 - b*T of the kernel at r_prime = 1/b; other points raise ValueError."""
    if r_prime.numerator != 1:
        raise ValueError(f"kernel support is restricted to r_prime = 1/b, got {r_prime}")
    return KernelGenerator(r_prime.denominator)


def inverse_truncation(gen: KernelGenerator, N: int) -> LaurentSeries:
    """Degree-N truncation of the formal inverse of the generator.

    For the normalized 1 - b*T this is the geometric prefix
    1 + b*T + ... + b**N * T**N, and the product with the generator
    telescopes to 1 - b**(N+1) * T**(N+1).
    """
    if not isinstance(N, int) or N < 0:
        raise ValueError(f"truncation order must be a nonnegative integer, got {N}")
    return LaurentSeries._trusted({k: gen.sign * gen.base**k for k in range(N + 1)})


def divide(g: LaurentSeries, gen: KernelGenerator) -> LaurentSeries:
    """Exact quotient h with gen.poly * h == g, if one exists.

    Long division from the lowest exponent, in plain integers: with
    gen.poly == sign * (1 - base*T), the quotient coefficients obey
    h_k = sign*g_k + base*h_(k-1).  When g is divisible the quotient's
    top exponent is max(support(g)) - 1, so the recurrence runs up to
    there and what it leaves at the top exponent is the remainder; a
    nonzero one is reported, with the quotient so far, in the raised
    NotDivisibleError.  A zero carry skips straight to the next exponent
    of g, so a sparse multiple costs O(terms) steps and a dense one
    O(span).
    """
    if not g:
        return LaurentSeries.zero()
    support = g.support()
    top = support[-1]
    sign, base = gen.sign, gen.base
    quotient: dict[int, int] = {}
    carry = 0  # h_(k-1)
    k = support[0]
    while k < top:
        carry = sign * g.coefficient(k) + base * carry
        if carry:
            quotient[k] = carry
            k += 1
        else:
            k = support[bisect_right(support, k)]
    # the recurrence at the top exponent yields sign * remainder
    left = sign * g.coefficient(top) + base * carry
    h = LaurentSeries._trusted(quotient)
    if left:
        raise NotDivisibleError(LaurentSeries.term(sign * left, top), h)
    return h


def in_kernel(g: LaurentSeries, params: RadiusParams) -> bool:
    """Whether g evaluates to zero at params.r_prime; raises ValueError unless it is 1/b."""
    generator_at(params.r_prime)
    return evaluate(g, params) == 0
