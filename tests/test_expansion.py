"""The greedy bounded-digit expansion and its certificates."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laurentreal import (
    LaurentSeries,
    RadiusParams,
    evaluate,
    expand,
    min_exponent,
    next_digit,
    series_of,
)
from laurentreal.expansion import ExpansionCertificate
from laurentreal.series import power_sum

from conftest import nonzero_rationals, rationals

PARAMS = RadiusParams(Fraction(1, 2), Fraction(1, 10))
TENTH = Fraction(1, 10)


# --- min_exponent


def test_min_exponent_of_one_third():
    # 1/10 <= 1/3 < 1
    assert min_exponent(Fraction(1, 3), TENTH) == 1


def test_min_exponent_of_one():
    assert min_exponent(Fraction(1), TENTH) == 0


def test_min_exponent_of_fifty():
    # 10 <= 50 < 100, so the bracket lands one power left of the units place
    assert min_exponent(Fraction(50), TENTH) == -1


def test_min_exponent_rejects_zero():
    with pytest.raises(ValueError):
        min_exponent(Fraction(0), TENTH)


@given(x=nonzero_rationals)
def test_min_exponent_bracket(x):
    n = min_exponent(x, TENTH)
    assert TENTH**n <= abs(x) < TENTH ** (n - 1)


@given(x=nonzero_rationals)
def test_min_exponent_bracket_other_base(x):
    rp = Fraction(2, 5)
    n = min_exponent(x, rp)
    assert rp**n <= abs(x) < rp ** (n - 1)


# --- next_digit


def test_next_digit_one_third():
    assert next_digit(Fraction(1, 3), PARAMS) == (1, 3, Fraction(1, 30))


def test_next_digit_terminates_on_single_place():
    assert next_digit(Fraction(7, 10), PARAMS) == (1, 7, Fraction(0))


def test_next_digit_negative_mirrors_positive():
    assert next_digit(Fraction(-1, 2), PARAMS) == (1, -5, Fraction(0))


@given(x=nonzero_rationals)
def test_next_digit_contract(x):
    n, a, x_next = next_digit(x, PARAMS)
    assert a != 0
    assert abs(x / TENTH**n - a) < 1
    assert abs(x_next) < TENTH**n <= abs(x)
    assert abs(a) < 1 + 1 / TENTH


# --- expand


def test_expand_recovers_decimal_digits():
    cert = expand(Fraction(314159, 100000), PARAMS, 40)
    assert cert.digits == ((0, 3), (1, 1), (2, 4), (3, 1), (4, 5), (5, 9))
    assert cert.residual == 0


def test_expand_zero_is_empty():
    cert = expand(Fraction(0), PARAMS, 40)
    assert cert.digits == ()
    assert cert.residual == 0
    assert cert.norm_budget == 0


def test_expand_repeating_third():
    cert = expand(Fraction(1, 3), PARAMS, 6)
    assert cert.digits == tuple((n, 3) for n in range(1, 7))
    assert cert.residual == Fraction(1, 3000000)


def test_expand_negation_flips_digits():
    x = Fraction(7351, 4096)
    plus = expand(x, PARAMS, 20)
    minus = expand(-x, PARAMS, 20)
    assert minus.digits == tuple((n, -a) for n, a in plus.digits)
    assert minus.residual == -plus.residual


def test_expand_respects_max_digits():
    cert = expand(Fraction(1, 7), PARAMS, 3)
    assert len(cert.digits) == 3
    cert = expand(Fraction(1, 7), PARAMS, 0)
    assert cert.digits == () and cert.residual == Fraction(1, 7)


def test_expand_rejects_negative_digit_budget():
    with pytest.raises(ValueError):
        expand(Fraction(1), PARAMS, -1)


def test_expand_at_other_point():
    # base 2: 5/8 = 1/2 + 1/8
    p = RadiusParams(Fraction(3, 4), Fraction(1, 2))
    cert = expand(Fraction(5, 8), p, 10)
    assert cert.digits == ((1, 1), (3, 1))
    assert cert.residual == 0


@settings(max_examples=200)
@given(x=rationals)
def test_expand_round_trip(x):
    cert = expand(x, PARAMS, 30)
    assert evaluate(series_of(cert), PARAMS) == x - cert.residual


@given(x=nonzero_rationals)
def test_strict_residual_descent(x):
    seen = []
    current = x
    for _ in range(8):
        if current == 0:
            break
        n, _, nxt = next_digit(current, PARAMS)
        seen.append((n, abs(current)))
        assert abs(nxt) < abs(current)
        current = nxt
    exponents = [n for n, _ in seen]
    magnitudes = [m for _, m in seen]
    assert exponents == sorted(set(exponents))
    assert magnitudes == sorted(magnitudes, reverse=True)


@given(x=nonzero_rationals)
def test_digit_bound_and_uniform_floor(x):
    cert = expand(x, PARAMS, 25)
    floor = min_exponent(x, TENTH)
    assert cert.exponent_floor == floor
    for n, a in cert.digits:
        assert abs(a) < cert.digit_bound
        assert abs(a) <= math.ceil(1 / TENTH)  # integer digits: strict bound tightens
        assert n >= floor
        assert TENTH**n <= abs(x)


@given(x=rationals)
def test_norm_budget_bounds_digit_series(x):
    cert = expand(x, PARAMS, 25)
    assert series_of(cert).r_norm(PARAMS.r) <= cert.norm_budget


OPEN_UNIT = st.fractions(min_value=0, max_value=1, max_denominator=60).filter(lambda q: 0 < q < 1)


@st.composite
def hand_built_certificates(draw):
    """(params, digits, floor): any digits the invariants admit, not only greedy ones."""
    r_prime = draw(st.one_of(
        st.sampled_from([Fraction(1, 10), Fraction(2, 7), Fraction(3, 10), Fraction(9, 10)]),
        OPEN_UNIT,
    ))
    r = r_prime + (1 - r_prime) * draw(OPEN_UNIT)
    u, w = r_prime.numerator, r_prime.denominator
    largest = (u + w - 1) // u  # the largest |a| with u*|a| < u + w
    floor = draw(st.integers(-40, 40))
    offsets = sorted(draw(st.sets(st.integers(0, 40), max_size=15)))
    digits = tuple((floor + k, draw(st.integers(-largest, largest))) for k in offsets)
    return RadiusParams(r, r_prime), digits, floor


@settings(max_examples=300)
@given(case=hand_built_certificates())
def test_digit_floor_and_radius_bounds_imply_the_norm_budget(case):
    params, digits, floor = case
    cert = ExpansionCertificate(
        target=power_sum(digits, params.r_prime),
        params=params,
        digits=digits,
        residual=Fraction(0),
        exponent_floor=floor,
    )
    assert power_sum(((n, abs(a)) for n, a in digits), params.r) < cert.norm_budget


@given(x=rationals)
def test_every_prefix_converges_geometrically(x):
    cert = expand(x, PARAMS, 25)
    partial = Fraction(0)
    for n, a in cert.digits:
        partial += a * TENTH**n
        assert abs(x - partial) < TENTH**n


def test_terminating_inputs_reach_zero_residual():
    for numerator in (1, -3, 417, 99999):
        x = Fraction(numerator, 10**4)
        cert = expand(x, PARAMS, 40)
        assert cert.residual == 0
        assert evaluate(series_of(cert), PARAMS) == x


# --- series_of and certificate validation


def test_series_of_empty_certificate():
    assert series_of(expand(Fraction(0), PARAMS, 5)) == LaurentSeries.zero()


def test_certificate_rejects_oversized_digit():
    with pytest.raises(ValueError):
        ExpansionCertificate(
            target=Fraction(11),
            params=PARAMS,
            digits=((-1, 11),),
            residual=Fraction(0),
            exponent_floor=-1,
        )


def test_certificate_rejects_unordered_exponents():
    with pytest.raises(ValueError):
        ExpansionCertificate(
            target=Fraction(33, 100),
            params=PARAMS,
            digits=((2, 3), (1, 3)),
            residual=Fraction(0),
            exponent_floor=1,
        )


def test_certificate_rejects_large_residual():
    with pytest.raises(ValueError):
        ExpansionCertificate(
            target=Fraction(1, 2),
            params=PARAMS,
            digits=((1, 4),),
            residual=Fraction(1, 10),
            exponent_floor=1,
        )
