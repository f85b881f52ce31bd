"""Ring arithmetic, norms, valuation, and ultrametric distance."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings

from laurentreal import (
    LaurentSeries,
    RadiusParams,
    TAdicParams,
    in_budget,
    t_adic_distance,
)

from conftest import nonzero_series, series, shift_amounts

HALF = Fraction(1, 2)


def T(coefficient, exponent):
    return LaurentSeries.term(coefficient, exponent)


# --- construction and equality


def test_constructor_prunes_zero_coefficients():
    f = LaurentSeries({0: 0, 1: 3, 2: 0})
    assert f.support() == (1,)
    assert f == T(3, 1)


def test_constructor_merges_duplicate_exponents():
    f = LaurentSeries([(1, 2), (1, -2), (0, 5)])
    assert f == T(5, 0)


def test_constructor_rejects_non_integer_coefficients():
    with pytest.raises(TypeError):
        LaurentSeries({0: Fraction(1, 2)})
    with pytest.raises(TypeError):
        LaurentSeries({Fraction(1): 1})
    with pytest.raises(TypeError):
        LaurentSeries({0: 1.5})


def test_equality_is_coefficient_map_equality():
    assert LaurentSeries({0: 1, 1: -10}) == LaurentSeries([(1, -10), (0, 1)])
    assert LaurentSeries() == LaurentSeries.zero()
    assert hash(LaurentSeries({2: 7})) == hash(LaurentSeries({2: 7}))


# --- add


def test_add_additive_inverse():
    assert T(3, 1) + T(-3, 1) == LaurentSeries.zero()


def test_add_disjoint_support_unions():
    f = LaurentSeries({-1: 1, 0: 2})
    g = T(5, 1)
    assert f + g == LaurentSeries({-1: 1, 0: 2, 1: 5})


@given(f=series)
def test_add_zero_is_identity(f):
    assert f + LaurentSeries.zero() == f


@given(f=series, g=series, h=series)
def test_add_associative_and_commutative(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f


# --- mul


def test_mul_difference_of_squares():
    f = LaurentSeries({0: 1, 1: -10})
    g = LaurentSeries({0: 1, 1: 10})
    assert f * g == LaurentSeries({0: 1, 2: -100})


@given(f=series, k=shift_amounts)
def test_mul_by_power_of_t_is_shift(f, k):
    assert T(1, k) * f == f.shift(k)


@settings(max_examples=200)
@given(f=series, g=series)
def test_mul_commutative(f, g):
    assert f * g == g * f


@given(f=series, g=series, h=series)
def test_mul_associative_and_distributive(f, g, h):
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@given(f=nonzero_series, g=nonzero_series)
def test_no_zero_divisors(f, g):
    assert f * g


def test_pow_rejects_bool_exponents():
    # True is an int to isinstance, but shift(True) already raises
    f = LaurentSeries({0: 1, 1: -2})
    for exponent in (True, False):
        with pytest.raises(ValueError, match="nonnegative integers"):
            f ** exponent


# --- shift


def test_shift_translates_exponents():
    assert LaurentSeries({0: 1, 1: 1}).shift(2) == LaurentSeries({2: 1, 3: 1})


@given(f=series)
def test_shift_zero_is_identity(f):
    assert f.shift(0) == f


@given(f=series)
def test_shift_scales_norm_by_radius(f):
    assert f.shift(1).r_norm(HALF) == HALF * f.r_norm(HALF)


@given(f=series, k=shift_amounts)
def test_shift_norm_identity_general(f, k):
    assert f.shift(k).r_norm(HALF) == HALF**k * f.r_norm(HALF)


# --- r_norm


def test_r_norm_two_terms():
    assert LaurentSeries({1: 3, 2: 4}).r_norm(HALF) == Fraction(5, 2)


def test_r_norm_zero_series():
    assert LaurentSeries.zero().r_norm(HALF) == 0


def test_r_norm_kernel_generator():
    assert LaurentSeries({0: -1, 1: 10}).r_norm(HALF) == 6


def test_r_norm_requires_radius_in_unit_interval():
    with pytest.raises(ValueError):
        LaurentSeries.one().r_norm(Fraction(3, 2))
    with pytest.raises(TypeError):
        LaurentSeries.one().r_norm(0.5)


@given(f=series, g=series)
def test_r_norm_subadditive_and_submultiplicative(f, g):
    norm = lambda s: s.r_norm(HALF)
    assert norm(f + g) <= norm(f) + norm(g)
    assert norm(f * g) <= norm(f) * norm(g)


# --- t_valuation


def test_t_valuation_minimum_support():
    assert LaurentSeries({-3: 1, 1: 5}).t_valuation() == -3


def test_t_valuation_zero_series_is_infinite():
    assert LaurentSeries.zero().t_valuation() == math.inf


@given(f=nonzero_series, g=nonzero_series)
def test_t_valuation_additive_under_products(f, g):
    assert (f * g).t_valuation() == f.t_valuation() + g.t_valuation()


# --- t_adic_distance


def test_distance_to_self_is_zero():
    f = LaurentSeries({0: 1, 5: -2})
    assert t_adic_distance(f, f) == 0


def test_distance_first_disagreement():
    f = LaurentSeries({0: 1, 1: 1})
    g = LaurentSeries({0: 1, 1: 1, 5: 1})
    assert t_adic_distance(f, g, TAdicParams(HALF)) == HALF**5


def test_distance_with_negative_valuation():
    f = LaurentSeries({-3: 1})
    assert t_adic_distance(f, LaurentSeries.zero(), TAdicParams(HALF)) == 8


@settings(max_examples=200)
@given(f=series, g=series, h=series)
def test_strong_triangle_inequality(f, g, h):
    d = t_adic_distance
    assert d(f, h) <= max(d(f, g), d(g, h))


# --- in_budget


def test_in_budget_boundary_included():
    f = LaurentSeries({0: -1, 1: 10})
    assert in_budget(f, RadiusParams(HALF, Fraction(1, 10), c=6))


def test_in_budget_rejects_above_budget():
    f = LaurentSeries({0: -1, 1: 10})
    assert not in_budget(f, RadiusParams(HALF, Fraction(1, 10), c=5))


def test_zero_is_in_every_budget():
    assert in_budget(LaurentSeries.zero(), RadiusParams(HALF, Fraction(1, 10), c=Fraction(1, 1000)))


def test_in_budget_requires_budget():
    with pytest.raises(ValueError):
        in_budget(LaurentSeries.zero(), RadiusParams(HALF, Fraction(1, 10)))


@given(f=series, k=shift_amounts)
def test_shift_maps_budget_to_scaled_budget(f, k):
    params = RadiusParams(HALF, Fraction(1, 10), c=3)
    shifted = RadiusParams(HALF, Fraction(1, 10), c=3 * HALF**k)
    assert in_budget(f, params) == in_budget(f.shift(k), shifted)


# --- parameter validation


def test_radius_params_require_strict_ordering():
    with pytest.raises(ValueError):
        RadiusParams(Fraction(1, 10), Fraction(1, 2))
    with pytest.raises(ValueError):
        RadiusParams(HALF, HALF)
    with pytest.raises(ValueError):
        RadiusParams(Fraction(3, 2), Fraction(1, 10))


def test_radius_params_accept_strings():
    p = RadiusParams("1/2", "1/10", c="6")
    assert (p.r, p.r_prime, p.c) == (HALF, Fraction(1, 10), 6)


def test_radius_params_reject_floats():
    with pytest.raises(TypeError):
        RadiusParams(0.5, Fraction(1, 10))


def test_budget_must_be_positive():
    with pytest.raises(ValueError):
        RadiusParams(HALF, Fraction(1, 10), c=0)


def test_t_adic_params_validate_delta():
    with pytest.raises(ValueError):
        TAdicParams(Fraction(3, 2))
    assert TAdicParams().delta == HALF
