"""The integer kernels agree exactly with the Fraction reference loops."""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from laurentreal import (
    KernelGenerator,
    LaurentSeries,
    NotDivisibleError,
    RadiusParams,
    divide,
    evaluate,
    expand,
    min_exponent,
    next_digit,
)

import fraction_reference as reference

# digits as in expansions, and coefficients far beyond machine words
coefficients = st.one_of(st.integers(-9, 9), st.integers(-(10**60), 10**60))


def series_over(lo: int, hi: int, max_size: int) -> st.SearchStrategy:
    return st.dictionaries(st.integers(lo, hi), coefficients, max_size=max_size).map(LaurentSeries)


dense_series = st.builds(
    lambda lo, cs: LaurentSeries({lo + i: c for i, c in enumerate(cs)}),
    st.integers(-20, 20),
    st.lists(coefficients, max_size=60),
)
# a few terms spread over thousands of exponents, on both sides of zero
sparse_wide_series = series_over(-2000, 2000, 6)
any_series = st.one_of(series_over(-6, 12, 8), dense_series, sparse_wide_series)

points = st.one_of(
    st.sampled_from([Fraction(1, 2), Fraction(1, 10), Fraction(2, 7), Fraction(3, 10), Fraction(9, 10)]),
    st.fractions(min_value=0, max_value=1, max_denominator=1000).filter(lambda q: 0 < q < 1),
)

# x = mantissa * 10**k with r_prime; the Fraction bracketing takes one step
# per exponent, so k is kept within reach of each base.  Cases are drawn and
# reported as (mantissa, k, r_prime): a 5,000-digit x has no printable repr.
BASES = [Fraction(1, 10), Fraction(1, 2), Fraction(2, 7), Fraction(3, 10),
         Fraction(2, 5), Fraction(3, 7), Fraction(9, 10)]


@st.composite
def targets(draw) -> tuple[Fraction, int, Fraction]:
    r_prime = draw(st.one_of(
        st.sampled_from(BASES),
        st.fractions(min_value=0, max_value=Fraction(9, 10), max_denominator=30)
        .filter(lambda q: q > 0),
    ))
    mantissa = draw(st.fractions(
        min_value=-(10**6), max_value=10**6, max_denominator=10**6
    ).filter(bool))
    reach = 5000 if r_prime == Fraction(1, 10) else 200 if r_prime in BASES else 40
    k = draw(st.integers(-reach, reach))
    return mantissa, k, r_prime


def target(case: tuple[Fraction, int, Fraction]) -> tuple[Fraction, Fraction]:
    mantissa, k, r_prime = case
    return mantissa * Fraction(10) ** k, r_prime


def division_outcome(fn, g, gen):
    try:
        return ("quotient", fn(g, gen))
    except NotDivisibleError as exc:
        return ("remainder", exc.remainder, exc.quotient_prefix)


@settings(deadline=None)
@given(f=any_series, x=points)
def test_evaluate_matches_reference(f, x):
    assert evaluate(f, x) == reference.evaluate(f, x)


@settings(deadline=None, max_examples=50)
@given(f=series_over(-6, 12, 8), a=st.integers(1, 9), k=st.integers(1, 5000))
@example(f=LaurentSeries({-6: 10**60, 0: -1, 12: 9}), a=1, k=5000)
def test_evaluate_at_tiny_points_matches_reference(f, a, k):
    x = Fraction(a, 10**k)
    assert evaluate(f, x) == reference.evaluate(f, x)


@settings(deadline=None)
@given(f=any_series, r=points)
def test_r_norm_matches_reference(f, r):
    assert f.r_norm(r) == reference.r_norm(f, r)


@settings(deadline=None)
@given(
    h=any_series,
    base=st.integers(2, 12),
    sign=st.sampled_from([1, -1]),
    perturbation=st.none() | st.tuples(st.integers(-2100, 2100), coefficients.filter(bool)),
)
def test_divide_matches_reference(h, base, sign, perturbation):
    gen = KernelGenerator(base, sign)
    g = gen.poly * h
    if perturbation is not None:
        exponent, coefficient = perturbation
        g = g + LaurentSeries.term(coefficient, exponent)
    assert division_outcome(divide, g, gen) == division_outcome(reference.divide, g, gen)


@settings(deadline=None, max_examples=60)
@given(case=targets())
@example(case=(Fraction(1), -5000, Fraction(1, 10)))
@example(case=(Fraction(1, 3), 5000, Fraction(1, 10)))
@example(case=(Fraction(3), -200, Fraction(2, 7)))
def test_min_exponent_matches_reference(case):
    x, r_prime = target(case)
    assert min_exponent(x, r_prime) == reference.min_exponent(x, r_prime)


@settings(deadline=None, max_examples=60)
@given(case=targets(), max_digits=st.integers(0, 40))
@example(case=(Fraction(1), -5000, Fraction(1, 10)), max_digits=3)
@example(case=(Fraction(-7, 3), -200, Fraction(2, 7)), max_digits=40)
@example(case=(Fraction(1, 7), 200, Fraction(3, 10)), max_digits=40)
def test_expand_matches_reference(case, max_digits):
    x, r_prime = target(case)
    params = RadiusParams((1 + r_prime) / 2, r_prime)
    cert = expand(x, params, max_digits)
    assert (cert.digits, cert.residual, cert.exponent_floor) == reference.expand(
        x, r_prime, max_digits
    )


@settings(deadline=None, max_examples=60)
@given(case=targets())
def test_next_digit_matches_reference(case):
    x, r_prime = target(case)
    params = RadiusParams((1 + r_prime) / 2, r_prime)
    digits, residual, _ = reference.expand(x, r_prime, 1)
    [(n, digit)] = digits
    assert next_digit(x, params) == (n, digit, residual)
