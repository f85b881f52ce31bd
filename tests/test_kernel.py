"""Kernel generator, formal inverse truncations, and exact division."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laurentreal import (
    KernelGenerator,
    LaurentSeries,
    NotDivisibleError,
    RadiusParams,
    divide,
    evaluate,
    generator,
    in_kernel,
    inverse_truncation,
)
from laurentreal.verify import run_exactness_suite

from conftest import nonzero_series, series

PARAMS = RadiusParams(Fraction(1, 2), Fraction(1, 10))
GEN10 = generator(10)


def divides(g, gen):
    try:
        divide(g, gen)
        return True
    except NotDivisibleError:
        return False


# --- generator


def test_generator_base_ten():
    assert GEN10.poly == LaurentSeries({0: 1, 1: -10})


def test_generator_base_two():
    assert generator(2).poly == LaurentSeries({0: 1, 1: -2})


@pytest.mark.parametrize("b", range(2, 13))
def test_generator_evaluates_to_zero(b):
    assert evaluate(generator(b).poly, Fraction(1, b)) == 0


def test_generator_rejects_small_bases():
    with pytest.raises(ValueError):
        generator(1)
    with pytest.raises(ValueError):
        generator(0)


def test_flipped_generator():
    flipped = GEN10.flipped()
    assert flipped.poly == LaurentSeries({0: -1, 1: 10})
    assert flipped.flipped().poly == GEN10.poly


# --- inverse truncations


def test_inverse_truncation_base_ten():
    assert inverse_truncation(GEN10, 2) == LaurentSeries({0: 1, 1: 10, 2: 100})


@pytest.mark.parametrize("b", [2, 7, 10])
def test_inverse_truncation_order_zero(b):
    assert inverse_truncation(generator(b), 0) == LaurentSeries.one()


@given(b=st.integers(min_value=2, max_value=16), N=st.integers(min_value=0, max_value=12))
def test_inverse_truncation_telescopes(b, N):
    gen = generator(b)
    product = gen.poly * inverse_truncation(gen, N)
    assert product == LaurentSeries({0: 1, N + 1: -(b ** (N + 1))})


def test_inverse_truncation_rejects_negative_order():
    with pytest.raises(ValueError):
        inverse_truncation(GEN10, -1)


# --- divide


def test_divide_sign_flip_gives_unit():
    assert divide(LaurentSeries({0: -1, 1: 10}), GEN10) == LaurentSeries({0: -1})


def test_divide_difference_of_squares():
    g = LaurentSeries({0: 1, 2: -100})
    assert divide(g, GEN10) == LaurentSeries({0: 1, 1: 10})


def test_divide_rejects_single_power_of_t():
    with pytest.raises(NotDivisibleError) as excinfo:
        divide(LaurentSeries({1: 1}), GEN10)
    assert excinfo.value.remainder == LaurentSeries({1: 1})


def test_divide_zero():
    assert divide(LaurentSeries.zero(), GEN10) == LaurentSeries.zero()


def test_not_divisible_witness_identity():
    g = LaurentSeries({-2: 3, 0: 1, 3: 7})
    try:
        divide(g, GEN10)
        assert False, "expected a remainder"
    except NotDivisibleError as exc:
        assert exc.remainder
        assert GEN10.poly * exc.quotient_prefix + exc.remainder == g


@given(h=series)
def test_multiply_then_divide_is_identity(h):
    assert divide(GEN10.poly * h, GEN10) == h


@given(h=series)
def test_divide_then_multiply_is_identity(h):
    g = GEN10.poly * h
    assert GEN10.poly * divide(g, GEN10) == g


@given(h=series)
def test_divide_works_with_flipped_generator(h):
    flipped = GEN10.flipped()
    assert divide(flipped.poly * h, flipped) == h


# --- in_kernel and the two membership routes


def test_generator_is_in_kernel():
    assert in_kernel(GEN10.poly, PARAMS)


def test_zero_is_in_kernel():
    assert in_kernel(LaurentSeries.zero(), PARAMS)


def test_non_member():
    assert evaluate(LaurentSeries({0: 3, 1: 1}), PARAMS) == Fraction(31, 10)
    assert not in_kernel(LaurentSeries({0: 3, 1: 1}), PARAMS)


def test_in_kernel_requires_unit_numerator_point():
    with pytest.raises(ValueError):
        in_kernel(LaurentSeries.zero(), RadiusParams(Fraction(1, 2), Fraction(2, 5)))


@settings(max_examples=300)
@given(f=series, multiply_in=st.booleans())
def test_membership_routes_agree(f, multiply_in):
    g = GEN10.poly * f if multiply_in else f
    assert in_kernel(g, PARAMS) == divides(g, GEN10)


@given(f=series, multiply_in=st.booleans())
def test_both_signs_generate_the_same_ideal(f, multiply_in):
    g = GEN10.poly * f if multiply_in else f
    assert divides(g, GEN10) == divides(g, GEN10.flipped())


@given(h=nonzero_series)
def test_multiplication_by_generator_is_injective(h):
    assert GEN10.poly * h


# --- reports and norm control


def test_single_negative_power_is_not_killed():
    assert GEN10.poly * LaurentSeries({-5: 1})


def test_not_zero_divisor_requires_positive_trials():
    with pytest.raises(ValueError):
        run_exactness_suite(PARAMS, trials=0)


def test_norm_submultiplicative_on_inverse_truncations():
    rng = random.Random(3)
    r = PARAMS.r
    for _ in range(50):
        N = rng.randint(0, 10)
        trunc = inverse_truncation(GEN10, N)
        product = GEN10.poly * trunc
        assert product.r_norm(r) <= GEN10.poly.r_norm(r) * trunc.r_norm(r)
