import random
from fractions import Fraction

import hypothesis.strategies as st

from laurentreal import LaurentSeries
from laurentreal.truncations import _integer_weights

coefficients = st.integers(min_value=-(10**6), max_value=10**6)
exponents = st.integers(min_value=-6, max_value=12)

series = st.dictionaries(exponents, coefficients, max_size=8).map(LaurentSeries)
nonzero_series = series.filter(bool)

# rationals kept small enough that norms and products stay fast
rationals = st.fractions(
    min_value=Fraction(-10**6), max_value=Fraction(10**6), max_denominator=10**6
)
nonzero_rationals = rationals.filter(lambda q: q != 0)

shift_amounts = st.integers(min_value=-5, max_value=5)


def random_budgeted_series(
    rng: random.Random,
    r: Fraction,
    budget: Fraction,
    min_exp: int,
    max_exp: int,
) -> LaurentSeries:
    """A series with support in [min_exp, max_exp] and norm at most budget.

    Digit ranges shrink with the budget spent so far, so the bound holds
    by construction; it is tracked in integer weights of the budget
    shifted by T**-min_exp.
    """
    weights, remaining = _integer_weights(max_exp - min_exp, r, budget / r**min_exp)
    coeffs: dict[int, int] = {}
    for n, weight in enumerate(weights, start=min_exp):
        largest = remaining // weight
        if largest:
            d = rng.randint(-largest, largest)
            if d:
                coeffs[n] = d
                remaining -= abs(d) * weight
    return LaurentSeries._trusted(coeffs)
