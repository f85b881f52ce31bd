"""Evaluation at r_prime and the exact continuity modulus."""

import random
from fractions import Fraction

import pytest
from hypothesis import given

from laurentreal import (
    LaurentSeries,
    RadiusParams,
    continuity_bound,
    evaluate,
    in_budget,
)
from laurentreal.evaluation import ContinuityBound

from conftest import random_budgeted_series, series, shift_amounts

PARAMS = RadiusParams(Fraction(1, 2), Fraction(1, 10))


def test_kernel_generator_evaluates_to_zero():
    assert evaluate(LaurentSeries({0: -1, 1: 10}), PARAMS) == 0


def test_zero_series_evaluates_to_zero():
    assert evaluate(LaurentSeries.zero(), PARAMS) == 0


def test_digit_series_evaluates_to_decimal():
    f = LaurentSeries({0: 3, 1: 1, 2: 4, 3: 1, 4: 5, 5: 9})
    assert evaluate(f, PARAMS) == Fraction(314159, 100000)


def test_negative_exponents_evaluate():
    assert evaluate(LaurentSeries({-2: 1}), PARAMS) == 100


def test_evaluate_accepts_bare_point():
    f = LaurentSeries({0: -1, 1: 10})
    assert evaluate(f, Fraction(1, 10)) == 0
    with pytest.raises(ValueError):
        evaluate(f, Fraction(3, 2))
    with pytest.raises(TypeError):
        evaluate(f, 0.1)


@given(f=series, g=series)
def test_evaluation_is_a_ring_homomorphism(f, g):
    assert evaluate(f + g, PARAMS) == evaluate(f, PARAMS) + evaluate(g, PARAMS)
    assert evaluate(f * g, PARAMS) == evaluate(f, PARAMS) * evaluate(g, PARAMS)


@given(f=series, k=shift_amounts)
def test_evaluate_shift_scales_by_point(f, k):
    assert evaluate(f.shift(k), PARAMS) == PARAMS.r_prime**k * evaluate(f, PARAMS)


# --- continuity bound


def test_continuity_bound_worked_example():
    p = RadiusParams(Fraction(1, 2), Fraction(1, 4))
    assert continuity_bound(3, 1, p).bound == Fraction(1, 2)


def test_continuity_bound_at_order_zero():
    ratio = PARAMS.r_prime / PARAMS.r
    assert continuity_bound(0, 1, PARAMS).bound == 2 / (1 - ratio)


def test_continuity_bound_strictly_decreasing_in_order():
    bounds = [continuity_bound(N, 1, PARAMS).bound for N in range(20)]
    assert all(a > b for a, b in zip(bounds, bounds[1:]))


def test_continuity_bound_validates_inputs():
    with pytest.raises(ValueError):
        continuity_bound(-1, 1, PARAMS)
    with pytest.raises(ValueError):
        continuity_bound(3, 0, PARAMS)


def test_continuity_bound_invariant_enforced():
    with pytest.raises(TypeError):
        ContinuityBound(agreement_order=3, budget=Fraction(1), params=PARAMS, bound=Fraction(1))
    ratio = PARAMS.r_prime / PARAMS.r
    derived = ContinuityBound(agreement_order=3, budget=Fraction(5), params=PARAMS)
    assert derived.bound == 2 * 5 * ratio**3 / (1 - ratio)


def test_budget_implies_coefficient_bound():
    rng = random.Random(11)
    p = PARAMS.with_budget(6)
    for _ in range(100):
        f = random_budgeted_series(rng, p.r, p.c, -3, 9)
        assert in_budget(f, p)
        for n, a in f.items():
            assert abs(a) <= p.c * p.r**-n


def test_agreement_up_to_order_bounds_evaluation_gap():
    rng = random.Random(23)
    for c in (Fraction(1), Fraction(6)):
        for N in range(1, 11):
            for _ in range(10):
                prefix = random_budgeted_series(rng, PARAMS.r, c / 2, -2, N)
                f = prefix + random_budgeted_series(rng, PARAMS.r, c / 2, N + 1, N + 6)
                g = prefix + random_budgeted_series(rng, PARAMS.r, c / 2, N + 1, N + 6)
                budgeted = PARAMS.with_budget(c)
                assert in_budget(f, budgeted) and in_budget(g, budgeted)
                gap = abs(evaluate(f, PARAMS) - evaluate(g, PARAMS))
                assert gap <= continuity_bound(N, c, PARAMS).bound
