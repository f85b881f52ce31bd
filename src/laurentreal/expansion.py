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

Everything runs in plain integers, with r_prime = u/w.  min_exponent
brackets n with O(log |n|) big-integer products.  The expansion itself is
long division (radix conversion): the residual over r_prime**n is kept as
a pair of integers R / D, each digit is one divmod, and moving one
exponent right multiplies R by w and D by u.  At r_prime = 1/b, D stays
fixed and |R| < b*D, so each digit costs time linear in the size of x;
for u > 1 the operands grow by log2(u*w) bits per exponent, as the exact
residuals do.  One Fraction, the final residual, is built at the end.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .series import FrozenRecord, LaurentSeries, RadiusParams, RationalLike, exact_fraction


def min_exponent(x: RationalLike, r_prime: RationalLike) -> int:
    """The unique n with r_prime**n <= |x| < r_prime**(n-1).

    Logarithm- and float-free: with r_prime = u/w and |x| = P/Q the test
    r_prime**n <= |x| is the integer comparison u**n * Q <= P * w**n,
    which flips once as n grows.  Galloping then bisecting on it finds n
    with O(log |n|) big-integer products.  x must be nonzero.
    """
    x = exact_fraction(x, "x")
    r_prime = exact_fraction(r_prime, "r_prime")
    if not (0 < r_prime < 1):
        raise ValueError(f"r_prime must lie in (0, 1), got {r_prime}")
    if x == 0:
        raise ValueError("min_exponent is undefined for x = 0")
    u, w = r_prime.numerator, r_prime.denominator
    P, Q = abs(x.numerator), x.denominator
    if Q <= P:
        # |x| >= 1: the largest m >= 0 with (w/u)**m <= |x| gives n = -m
        return -_last_holding(Q, P, w, u, operator.le)
    # |x| < 1: the largest k >= 0 with |x| < r_prime**k gives n = k + 1
    return _last_holding(P, Q, w, u, operator.lt) + 1


def _last_holding(lhs: int, rhs: int, a: int, b: int, holds) -> int:
    """Largest k >= 0 with holds(lhs * a**k, rhs * b**k), given it holds at 0.

    Needs a > b > 0, so the test fails for large k.  Steps of 1, 2, 4, ...
    are taken while it holds; the halved steps are then retried in turn
    (binary lifting), so k costs O(log k) products.
    """
    k = 0
    taken: list[tuple[int, int, int]] = []
    step = 1
    while holds(lhs * a, rhs * b):
        lhs, rhs, k = lhs * a, rhs * b, k + step
        taken.append((step, a, b))
        step, a, b = 2 * step, a * a, b * b
    for step, a, b in reversed(taken):
        if holds(lhs * a, rhs * b):
            lhs, rhs, k = lhs * a, rhs * b, k + step
    return k


def _greedy(
    x: Fraction, r_prime: Fraction, n: int, max_digits: int
) -> tuple[list[tuple[int, int]], Fraction]:
    """Up to max_digits greedy digits of x from exponent n on, and the residual.

    n must be min_exponent(x, r_prime).  Digits go unchecked: the inner loop
    leaves D <= |R|, so no digit is 0, and divmod leaves |rest| < D.
    """
    u, w = r_prime.numerator, r_prime.denominator
    # R / D is the residual over r_prime**n, with D > 0
    if n >= 0:
        R, D = x.numerator * w**n, x.denominator * u**n
    else:
        R, D = x.numerator * u**-n, x.denominator * w**-n
    digits: list[tuple[int, int]] = []
    while R and len(digits) < max_digits:
        while abs(R) < D:  # no digit at this exponent
            R, D, n = R * w, D * u, n + 1
        digit, rest = divmod(abs(R), D)  # truncation toward zero
        if R < 0:
            digit, rest = -digit, -rest
        digits.append((n, digit))
        R, D, n = rest * w, D * u, n + 1
    return digits, Fraction(R, D) * r_prime**n


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
    [(n, digit)], residual = _greedy(x, params.r_prime, n, 1)
    return n, digit, residual


class ExpansionCertificate(FrozenRecord):
    """A greedy expansion together with the bounds that make it checkable.

    digit_bound = 1 + 1/r_prime and norm_budget, the exact geometric tail
    digit_bound * r**exponent_floor / (1 - r) (0 for the empty expansion),
    are derived at construction, not passed.

    Invariants, verified at construction:
      - exponents strictly increase along the digit list
      - every |a_n| < digit_bound and every n >= exponent_floor
      - |residual| < r_prime**n_last after the final digit
    They imply the norm bound: distinct n >= exponent_floor, |a_n| < digit_bound
    and 0 < r < 1 give sum |a_n| * r**n <= norm_budget.  Digits may be 0.
    """

    _fields = ("target", "params", "digits", "residual", "exponent_floor",
               "digit_bound", "norm_budget")

    def __init__(
        self, target: Fraction, params: RadiusParams, digits: tuple[tuple[int, int], ...],
        residual: Fraction, exponent_floor: int | None,
    ):
        r, rp = params.r, params.r_prime
        u, w = rp.numerator, rp.denominator
        digit_bound = Fraction(u + w, u)
        if exponent_floor is None:
            norm_budget = Fraction(0)
        else:
            norm_budget = digit_bound * r**exponent_floor / (1 - r)
        previous = None
        for n, a in digits:
            if previous is not None and n <= previous:
                raise ValueError(f"exponents must strictly increase, got {n} after {previous}")
            if u * abs(a) >= u + w:
                raise ValueError(f"digit {a} at exponent {n} exceeds bound {digit_bound}")
            if exponent_floor is None or n < exponent_floor:
                raise ValueError(f"exponent {n} below the uniform floor {exponent_floor}")
            previous = n
        if digits and not abs(residual) < rp ** digits[-1][0]:
            raise ValueError("residual not below r_prime**n_last")
        self._store(
            target=target, params=params, digits=digits, residual=residual,
            exponent_floor=exponent_floor, digit_bound=digit_bound, norm_budget=norm_budget,
        )


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
    digits: list[tuple[int, int]] = []
    residual = x
    floor: int | None = None
    if x != 0:
        floor = min_exponent(x, params.r_prime)
        digits, residual = _greedy(x, params.r_prime, floor, max_digits)
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
