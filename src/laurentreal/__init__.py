"""Exact arithmetic for norm-bounded integral Laurent series.

Finitely supported series over the integers, an exact weighted norm at a
rational radius, evaluation onto the rationals at a second radius, the
greedy bounded-digit expansion inverting that evaluation, division by the
degree-one kernel generator, and finite truncation sets with their
restriction maps.
"""

from .evaluation import ContinuityBound, continuity_bound, evaluate
from .expansion import (
    ExpansionCertificate,
    expand,
    min_exponent,
    next_digit,
    series_of,
)
from .kernel import (
    KernelGenerator,
    NotDivisibleError,
    divide,
    generator,
    in_kernel,
    inverse_truncation,
)
from .series import (
    LaurentSeries,
    RadiusParams,
    TAdicParams,
    in_budget,
    t_adic_distance,
)
from .truncations import (
    CardinalityCapError,
    TruncationSet,
    count_truncations,
    enumerate_truncations,
    normalize_budget,
    restrict,
)

__version__ = "0.1.0"

__all__ = [
    "ContinuityBound",
    "ExpansionCertificate",
    "KernelGenerator",
    "LaurentSeries",
    "NotDivisibleError",
    "CardinalityCapError",
    "RadiusParams",
    "TAdicParams",
    "TruncationSet",
    "continuity_bound",
    "count_truncations",
    "divide",
    "enumerate_truncations",
    "evaluate",
    "expand",
    "generator",
    "in_budget",
    "in_kernel",
    "inverse_truncation",
    "min_exponent",
    "next_digit",
    "normalize_budget",
    "restrict",
    "series_of",
    "t_adic_distance",
]
