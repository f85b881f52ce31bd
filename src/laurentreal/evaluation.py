"""Evaluation of series at the rational point r_prime, with its continuity modulus.

Substituting T = r_prime sends a finitely supported series to an exact
rational.  The map is a ring homomorphism, and on a norm-bounded set it
admits an explicit modulus of continuity: two series in budget c that
agree on every exponent up to N evaluate within
2*c*(r_prime/r)**N / (1 - r_prime/r) of each other.
"""

from __future__ import annotations

from fractions import Fraction

from .series import (
    FrozenRecord, LaurentSeries, RadiusParams, RationalLike, exact_fraction, power_sum,
)


def _evaluation_point(at: RadiusParams | RationalLike) -> Fraction:
    if isinstance(at, RadiusParams):
        return at.r_prime
    point = exact_fraction(at, "evaluation point")
    if not (0 < point < 1):
        raise ValueError(f"evaluation point must lie in (0, 1), got {point}")
    return point


def evaluate(f: LaurentSeries, at: RadiusParams | RationalLike) -> Fraction:
    """Sum of a_n * r_prime**n over the support of f, as an exact rational.

    Computed in integers by series.power_sum (homogenized Horner).

    Additive and multiplicative: evaluate(f + g) == evaluate(f) + evaluate(g)
    and evaluate(f * g) == evaluate(f) * evaluate(g).
    """
    return power_sum(f.items(), _evaluation_point(at))


class ContinuityBound(FrozenRecord):
    """Certified output gap for budgeted series agreeing up to an exponent.

    bound = 2*c*(r_prime/r)**N / (1 - r_prime/r), derived exactly at construction.
    """

    _fields = ("agreement_order", "budget", "params", "bound")

    def __init__(self, agreement_order: int, budget: Fraction, params: RadiusParams):
        ratio = params.r_prime / params.r
        bound = 2 * budget * ratio**agreement_order / (1 - ratio)
        self._store(agreement_order=agreement_order, budget=budget, params=params, bound=bound)


def continuity_bound(
    N: int, c: RationalLike, params: RadiusParams
) -> ContinuityBound:
    """The exact ContinuityBound for agreement order N and budget c."""
    if not isinstance(N, int) or N < 0:
        raise ValueError(f"agreement order N must be a nonnegative integer, got {N}")
    c = exact_fraction(c, "budget c")
    if c <= 0:
        raise ValueError(f"budget c must be positive, got {c}")
    return ContinuityBound(agreement_order=N, budget=c, params=params)
