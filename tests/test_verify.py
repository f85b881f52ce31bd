"""The seeded exactness property suite used by the verify command."""

import random
from fractions import Fraction

import pytest

from laurentreal import LaurentSeries, RadiusParams, in_budget
from laurentreal.verify import (
    PropertyResult,
    random_nonzero_series,
    random_series,
    run_exactness_suite,
)

from conftest import random_budgeted_series

PARAMS = RadiusParams(Fraction(1, 2), Fraction(1, 10))


def test_suite_passes_at_small_scale():
    results = run_exactness_suite(PARAMS, trials=40, seed=1)
    assert len(results) == 4
    assert all(r.passed for r in results)
    assert all(r.trials == 40 for r in results)


def test_suite_is_deterministic():
    first = [r.to_dict() for r in run_exactness_suite(PARAMS, trials=25, seed=9)]
    second = [r.to_dict() for r in run_exactness_suite(PARAMS, trials=25, seed=9)]
    assert first == second


@pytest.mark.parametrize("trials", [0, -5])
def test_suite_requires_positive_trials(trials):
    with pytest.raises(ValueError):
        run_exactness_suite(PARAMS, trials=trials, seed=0)


def test_suite_requires_unit_numerator_point():
    with pytest.raises(ValueError):
        run_exactness_suite(RadiusParams(Fraction(1, 2), Fraction(2, 5)), trials=5, seed=0)


def test_property_result_reporting():
    result = PropertyResult("sample", trials=3)
    assert result.passed
    result.record_failure("boom")
    assert not result.passed
    assert result.to_dict()["failures"] == 1


def test_random_budgeted_series_respects_budget():
    rng = random.Random(4)
    for _ in range(200):
        f = random_budgeted_series(rng, Fraction(1, 2), Fraction(3), -3, 8)
        assert in_budget(f, PARAMS.with_budget(3))


def test_random_nonzero_series_is_nonzero():
    rng = random.Random(4)
    assert all(random_nonzero_series(rng) for _ in range(50))


def fraction_random_budgeted_series(rng, r, budget, min_exp, max_exp):
    """Reference implementation in Fraction arithmetic: the norm spent so far."""
    remaining = budget
    coeffs = {}
    for n in range(min_exp, max_exp + 1):
        weight = r**n
        largest = int(remaining / weight)
        if largest:
            d = rng.randint(-largest, largest)
            if d:
                coeffs[n] = d
                remaining -= abs(d) * weight
    return LaurentSeries(coeffs)


@pytest.mark.parametrize(
    "r, budget, min_exp, max_exp",
    [
        (Fraction(1, 2), Fraction(3), -3, 8),
        (Fraction(1, 2), Fraction(1, 2), 4, 9),
        (Fraction(2, 3), Fraction(6), -2, 9),
        (Fraction(3, 7), Fraction(5, 4), 0, 6),
    ],
)
def test_random_budgeted_series_matches_fraction_reference(r, budget, min_exp, max_exp):
    for seed in range(100):
        rng, reference_rng = random.Random(seed), random.Random(seed)
        got = random_budgeted_series(rng, r, budget, min_exp, max_exp)
        want = fraction_random_budgeted_series(reference_rng, r, budget, min_exp, max_exp)
        assert got == want
        assert rng.getstate() == reference_rng.getstate()


def reference_random_series(rng, min_exp=-4, max_exp=8, max_coeff=50, max_terms=6):
    """The draws of random_series, canonicalized by the checked constructor."""
    coeffs = {}
    for _ in range(rng.randint(0, max_terms)):
        coeffs[rng.randint(min_exp, max_exp)] = rng.randint(-max_coeff, max_coeff)
    return LaurentSeries(coeffs)


@pytest.mark.parametrize(
    "kwargs", [{}, {"min_exp": 0, "max_exp": 2, "max_coeff": 1, "max_terms": 10}]
)
def test_random_series_matches_reference(kwargs):
    for seed in range(100):
        rng, reference_rng = random.Random(seed), random.Random(seed)
        got = random_series(rng, **kwargs)
        want = reference_random_series(reference_rng, **kwargs)
        assert got == want
        assert rng.getstate() == reference_rng.getstate()
