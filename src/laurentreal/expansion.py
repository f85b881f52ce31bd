"""Greedy digit expansion of rationals in the redundant base r_prime.

The algorithm peels one bounded integer digit at a time: find the least
exponent n with r_prime**n <= |x|, take the integer part of x / r_prime**n
(truncated toward zero), subtract, repeat on the strictly smaller residual.
Every digit satisfies |a_n| < 1 + 1/r_prime, exponents strictly increase,
and the residual after a digit at exponent n is below r_prime**n, so the
emitted partial sums converge to x at geometric rate.  With r_prime = 1/10
the digits are exactly the decimal digits of x (zeros skipped, sign carried
on each digit).

Digit choice is deterministic: among the two admissible integers we always
truncate toward zero, which keeps the residual sign equal to the sign of x
and terminates with residual exactly 0 on inputs whose base-(1/r_prime)
expansion is finite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .series import LaurentSeries, RadiusParams, RationalLike, exact_fraction


def min_exponent(x: RationalLike, r_prime: RationalLike) -> int:
    """The unique n with r_prime**n <= |x| < r_prime**(n-1).

    Logarithm-free: bracket by repeated exact multiplication or division
    by r_prime, then stop on the first power that fits.  x must be nonzero.
    """
    x = exact_fraction(x, "x")
    r_prime = exact_fraction(r_prime, "r_prime")
    if not (0 < r_prime < 1):
        raise ValueError(f"r_prime must lie in (0, 1), got {r_prime}")
    if x == 0:
        raise ValueError("min_exponent is undefined for x = 0")
    ax = abs(x)
    n = 0
    power = Fraction(1)
    if power <= ax:
        while power / r_prime <= ax:
            power /= r_prime
            n -= 1
    else:
        while power > ax:
            power *= r_prime
            n += 1
    return n


def _digit_step(x: Fraction, n: int, power: Fraction) -> tuple[int, Fraction]:
    """Emit the digit at exponent n (power == r_prime**n) and the next residual.

    Verifies the defining strict inequalities before returning.
    """
    quotient = x / power
    digit = int(quotient)  # truncation toward zero
    residual = x - digit * power
    if digit == 0 or abs(quotient - digit) >= 1:
        raise ArithmeticError(f"digit {digit} violates |x/r_prime**n - a| < 1 at n={n}")
    if not (abs(residual) < power <= abs(x)):
        raise ArithmeticError(f"residual {residual} fails strict descent at n={n}")
    return digit, residual


def next_digit(
    x: RationalLike, params: RadiusParams
) -> tuple[int, int, Fraction]:
    """One greedy step: (exponent n, digit a_n, new residual) for nonzero x.

    n = min_exponent(x, r_prime), a_n is x / r_prime**n truncated toward
    zero (never 0, and |a_n| < 1 + 1/r_prime), and the residual
    x - a_n * r_prime**n is strictly smaller than r_prime**n in absolute
    value.
    """
    x = exact_fraction(x, "x")
    n = min_exponent(x, params.r_prime)
    digit, residual = _digit_step(x, n, params.r_prime**n)
    return n, digit, residual


@dataclass(frozen=True)
class ExpansionCertificate:
    """A greedy expansion together with the bounds that make it checkable.

    digit_bound = 1 + 1/r_prime and norm_budget, the exact geometric tail
    digit_bound * r**exponent_floor / (1 - r) (0 for the empty expansion),
    are derived at construction, not passed.

    Invariants, verified at construction:
      - exponents strictly increase along the digit list
      - every |a_n| < digit_bound and every n >= exponent_floor
      - |residual| < r_prime**n_last after the final digit
      - the digit series has weighted norm at most norm_budget
    """

    target: Fraction
    params: RadiusParams
    digits: tuple[tuple[int, int], ...]
    residual: Fraction
    exponent_floor: int | None
    digit_bound: Fraction = field(init=False)
    norm_budget: Fraction = field(init=False)

    def __post_init__(self) -> None:
        r, rp = self.params.r, self.params.r_prime
        digit_bound = 1 + 1 / rp
        if self.exponent_floor is None:
            norm_budget = Fraction(0)
        else:
            norm_budget = digit_bound * r**self.exponent_floor / (1 - r)
        object.__setattr__(self, "digit_bound", digit_bound)
        object.__setattr__(self, "norm_budget", norm_budget)
        previous = None
        norm = Fraction(0)
        for n, a in self.digits:
            if previous is not None and n <= previous:
                raise ValueError(f"exponents must strictly increase, got {n} after {previous}")
            if abs(a) >= digit_bound:
                raise ValueError(f"digit {a} at exponent {n} exceeds bound {digit_bound}")
            if self.exponent_floor is None or n < self.exponent_floor:
                raise ValueError(f"exponent {n} below the uniform floor {self.exponent_floor}")
            previous = n
            norm += abs(a) * r**n
        if norm > norm_budget:
            raise ValueError(f"digit norm {norm} exceeds budget {norm_budget}")
        if self.digits and not abs(self.residual) < rp ** self.digits[-1][0]:
            raise ValueError("residual not below r_prime**n_last")


def expand(
    x: RationalLike, params: RadiusParams, max_digits: int
) -> ExpansionCertificate:
    """Run the greedy expansion until the residual is 0 or max_digits digits.

    x = 0 yields the empty certificate.  The partial sum through any prefix
    ending at exponent N differs from x by strictly less than r_prime**N.
    """
    if not isinstance(max_digits, int) or max_digits < 0:
        raise ValueError(f"max_digits must be a nonnegative integer, got {max_digits}")
    x = exact_fraction(x, "x")
    rp = params.r_prime
    digits: list[tuple[int, int]] = []
    residual = x
    floor: int | None = None
    if x != 0:
        n = min_exponent(x, rp)
        floor = n
        power = rp**n
        while residual != 0 and len(digits) < max_digits:
            # exponents only move right, so forward scanning finds the
            # minimal exponent for each residual without re-bracketing
            while power > abs(residual):
                power *= rp
                n += 1
            digit, residual = _digit_step(residual, n, power)
            digits.append((n, digit))
            power *= rp
            n += 1
    return ExpansionCertificate(
        target=x,
        params=params,
        digits=tuple(digits),
        residual=residual,
        exponent_floor=floor,
    )


def series_of(cert: ExpansionCertificate) -> LaurentSeries:
    """The digit series of a certificate; evaluates to target - residual."""
    return LaurentSeries(cert.digits)
