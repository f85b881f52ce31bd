"""Fraction-arithmetic reference implementations of the integer kernels.

These are the straightforward loops the library used before its integer
kernels: one Fraction operation per term, digit or division step.  They
are slow (quadratic in places) but obviously correct, and serve only as
oracles for the differential tests; no library code imports them.
"""

from fractions import Fraction

from laurentreal import LaurentSeries, NotDivisibleError


def evaluate(f: LaurentSeries, point: Fraction) -> Fraction:
    return sum((a * point**n for n, a in f.items()), Fraction(0))


def r_norm(f: LaurentSeries, r: Fraction) -> Fraction:
    return sum((abs(a) * r**n for n, a in f.items()), Fraction(0))


def divide(g: LaurentSeries, gen) -> LaurentSeries:
    """Synthetic division by gen.poly from the lowest exponent."""
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


def min_exponent(x: Fraction, r_prime: Fraction) -> int:
    """Bracket by repeated multiplication or division by r_prime."""
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


def digit_step(x: Fraction, n: int, power: Fraction) -> tuple[int, Fraction]:
    quotient = x / power
    digit = int(quotient)  # truncation toward zero
    residual = x - digit * power
    assert digit != 0 and abs(quotient - digit) < 1
    assert abs(residual) < power <= abs(x)
    return digit, residual


def expand(
    x: Fraction, r_prime: Fraction, max_digits: int
) -> tuple[tuple[tuple[int, int], ...], Fraction, int | None]:
    """(digits, residual, exponent floor) of the greedy expansion."""
    digits: list[tuple[int, int]] = []
    residual = x
    floor = None
    if x != 0:
        n = min_exponent(x, r_prime)
        floor = n
        power = r_prime**n
        while residual != 0 and len(digits) < max_digits:
            while power > abs(residual):
                power *= r_prime
                n += 1
            digit, residual = digit_step(residual, n, power)
            digits.append((n, digit))
            power *= r_prime
            n += 1
    return tuple(digits), residual, floor
