"""Acceptance suite: one test per exit criterion, all comparisons exact.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.  Random draws are seeded, so every run checks the same cases.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from laurentreal import (
    LaurentSeries,
    NotDivisibleError,
    RadiusParams,
    continuity_bound,
    divide,
    enumerate_truncations,
    evaluate,
    expand,
    generator,
    in_budget,
    in_kernel,
    restrict,
    series_of,
)
from laurentreal.verify import (
    random_nonzero_series,
    random_rational,
    random_series,
    run_exactness_suite,
)

from conftest import random_budgeted_series

SEED = 42
PARAMS = RadiusParams(Fraction(1, 2), Fraction(1, 10))
TENTH = Fraction(1, 10)


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


@pytest.fixture(scope="session")
def rational_corpus():
    """1000 seeded random rationals in [-10**6, 10**6] with their 40-digit expansions."""
    rng = random.Random(SEED)
    corpus = []
    for _ in range(1000):
        x = random_rational(rng, magnitude=10**6)
        corpus.append((x, expand(x, PARAMS, 40)))
    return corpus


@pytest.fixture(scope="session")
def decimal_corpus():
    """500 seeded random rationals with terminating decimal expansions of <= 12 digits."""
    rng = random.Random(SEED + 100)
    corpus = []
    for _ in range(500):
        places = rng.randint(0, 12)
        mantissa = rng.randint(-(10**9), 10**9)
        x = Fraction(mantissa, 10**places)
        corpus.append((x, expand(x, PARAMS, 40)))
    return corpus


def decimal_digit_terms(x):
    """Independent digit oracle: read the digits off the decimal string of x.

    Exponent n carries the digit at place 10**-n; zero digits are skipped
    and the sign rides on every digit.
    """
    if x == 0:
        return ()
    sign = 1 if x > 0 else -1
    scaled = abs(x)
    places = 0
    while scaled.denominator != 1:
        scaled *= 10
        places += 1
    text = str(scaled.numerator)
    terms = []
    for i, ch in enumerate(text):
        digit = int(ch)
        if digit:
            terms.append((places - (len(text) - 1 - i), sign * digit))
    return tuple(terms)


def test_criterion_1_exactness_suite(rational_corpus):
    started = time.monotonic()
    results = run_exactness_suite(PARAMS, trials=1000, seed=SEED, max_digits=40)
    for result in results:
        assert result.failures == 0, result.to_dict()
    # the surjectivity leg, asserted directly on the frozen corpus
    for x, cert in rational_corpus:
        recovered = evaluate(series_of(cert), PARAMS)
        assert recovered + cert.residual == x
        if cert.digits:
            assert abs(x - recovered) < TENTH ** cert.digits[-1][0]
        else:
            assert x == 0 and cert.residual == 0
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    report(1, f"4 properties x 1000 trials + 1000 expansions in {elapsed:.2f}s")


def test_criterion_2_decimal_recovery(decimal_corpus):
    for x, cert in decimal_corpus:
        assert cert.residual == 0
        assert cert.digits == decimal_digit_terms(x)
    report(2, "500 terminating decimals recovered digit for digit")


def test_criterion_3_generator_identification():
    gen = generator(10)
    unit = divide(LaurentSeries({0: -1, 1: 10}), gen)
    assert unit == LaurentSeries({0: -1})

    def divides(g, which):
        try:
            divide(g, which)
            return True
        except NotDivisibleError:
            return False

    rng = random.Random(SEED)
    flipped = gen.flipped()
    for _ in range(200):
        g = random_series(rng)
        if rng.random() < 0.5:
            g = gen.poly * g
        by_evaluation = in_kernel(g, PARAMS)
        by_division = divides(g, gen)
        assert by_evaluation == by_division
        assert by_division == divides(g, flipped)
    report(3, "unit quotient -1; 200 membership queries agree on both routes and signs")


def test_criterion_4_continuity_modulus():
    rng = random.Random(SEED)
    checked = 0
    for c in (Fraction(1), Fraction(6)):
        for N in range(1, 11):
            budgeted = PARAMS.with_budget(c)
            for _ in range(25):
                shared = random_budgeted_series(rng, PARAMS.r, c / 2, -2, N)
                f = shared + random_budgeted_series(rng, PARAMS.r, c / 2, N + 1, N + 7)
                g = shared + random_budgeted_series(rng, PARAMS.r, c / 2, N + 1, N + 7)
                assert in_budget(f, budgeted) and in_budget(g, budgeted)
                gap = abs(evaluate(f, PARAMS) - evaluate(g, PARAMS))
                assert gap <= continuity_bound(N, c, PARAMS).bound
                checked += 1
    assert checked == 500
    report(4, "500 budgeted pairs within the exact modulus")


def test_criterion_5_truncation_sets():
    started = time.monotonic()

    level_one = enumerate_truncations(1, RadiusParams(Fraction(1, 2), TENTH, c=1))
    box = itertools.product(range(-1, 2), range(-2, 3))
    brute = [
        t for t in box if abs(t[0]) + abs(t[1]) * Fraction(1, 2) <= 1
    ]
    assert len(level_one) == 7 == len(brute)
    assert sorted(level_one.elements) == sorted(brute)

    cases = [
        RadiusParams(Fraction(1, 2), Fraction(1, 20), c=1),
        RadiusParams(Fraction(1, 2), Fraction(1, 20), c=2),
        RadiusParams(Fraction(1, 10), Fraction(1, 100), c=1),
    ]
    for p in cases:
        levels = [enumerate_truncations(m, p) for m in range(4)]
        for m in range(3, 0, -1):
            assert restrict(levels[m]).elements == levels[m - 1].elements
        composed = restrict(restrict(levels[3]))
        direct = tuple(sorted(set(t[:-2] for t in levels[3].elements)))
        assert composed.elements == direct

    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    report(5, f"7-element level check + 3 restriction chains in {elapsed:.2f}s")


def test_criterion_6_norm_algebra():
    rng = random.Random(SEED)
    r = PARAMS.r
    for _ in range(1000):
        f = random_series(rng)
        g = random_series(rng)
        assert (f * g).r_norm(r) <= f.r_norm(r) * g.r_norm(r)
    for _ in range(1000):
        f = random_series(rng)
        g = random_series(rng)
        assert (f + g).r_norm(r) <= f.r_norm(r) + g.r_norm(r)
    for _ in range(1000):
        f = random_series(rng)
        k = rng.randint(-6, 6)
        assert f.shift(k).r_norm(r) == r**k * f.r_norm(r)
    report(6, "3 x 1000 exact norm inequalities")


def test_criterion_7_greedy_digit_bounds(rational_corpus, decimal_corpus):
    digit_bound = 1 + 1 / TENTH
    total = 0
    for _, cert in itertools.chain(rational_corpus, decimal_corpus):
        assert cert.digit_bound == digit_bound
        for _, a in cert.digits:
            assert abs(a) < digit_bound
        assert series_of(cert).r_norm(PARAMS.r) <= cert.norm_budget
        total += 1
    assert total == 1500
    report(7, "digit and norm-budget bounds hold across all 1500 certificates")
