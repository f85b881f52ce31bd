"""Finite truncation sets, restriction maps, and budget normalization."""

import itertools
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laurentreal import (
    CardinalityCapError,
    RadiusParams,
    TruncationSet,
    count_truncations,
    enumerate_truncations,
    expand,
    normalize_budget,
    restrict,
)

HALF = Fraction(1, 2)


def params(r, c):
    return RadiusParams(r, r / 10, c=c)


def fraction_norm(tup, r):
    """Reference norm in Fraction arithmetic, the oracle for enumerate and validate."""
    return sum(abs(a) * r**n for n, a in enumerate(tup))


def brute_force(m, p):
    """Independent oracle: scan the whole digit box, filter by the exact norm."""
    bounds = [int(p.c / p.r**n) for n in range(m + 1)]
    hits = []
    for tup in itertools.product(*[range(-b, b + 1) for b in bounds]):
        if fraction_norm(tup, p.r) <= p.c:
            hits.append(tup)
    return sorted(hits)


def test_degree_one_set_has_seven_elements():
    ts = enumerate_truncations(1, params(HALF, Fraction(1)))
    assert len(ts) == 7
    assert sorted(ts.elements) == [
        (-1, 0), (0, -2), (0, -1), (0, 0), (0, 1), (0, 2), (1, 0),
    ]


def test_degree_zero_set():
    ts = enumerate_truncations(0, params(HALF, Fraction(1)))
    assert ts.elements == ((-1,), (0,), (1,))


def test_tiny_budget_collapses_to_zero_tuple():
    ts = enumerate_truncations(3, params(HALF, Fraction(1, 1000)))
    assert ts.elements == ((0, 0, 0, 0),)


@pytest.mark.parametrize(
    "m,r,c",
    [
        (0, HALF, Fraction(1)),
        (1, HALF, Fraction(1)),
        (2, HALF, Fraction(2)),
        (1, Fraction(1, 3), Fraction(3, 2)),
        (2, Fraction(2, 3), Fraction(1)),
    ],
)
def test_enumeration_matches_brute_force(m, r, c):
    p = params(r, c)
    assert list(enumerate_truncations(m, p).elements) == brute_force(m, p)


def test_elements_are_lexicographically_sorted():
    ts = enumerate_truncations(2, params(HALF, Fraction(2)))
    assert list(ts.elements) == sorted(ts.elements)


def test_digit_ranges_certified():
    p = params(HALF, Fraction(2))
    for tup in enumerate_truncations(3, p):
        for n, a in enumerate(tup):
            assert abs(a) <= int(p.c / p.r**n)


def test_validate_accepts_enumerated_sets():
    enumerate_truncations(2, params(HALF, Fraction(1))).validate()


@settings(max_examples=300)
@given(
    r=st.sampled_from([HALF, Fraction(2, 3), Fraction(3, 7), Fraction(9, 10)]),
    c=st.fractions(min_value=Fraction(1, 10), max_value=5, max_denominator=12),
    width=st.integers(min_value=1, max_value=5),
    data=st.data(),
    on_budget=st.booleans(),
)
def test_validate_agrees_with_fraction_norm(r, c, width, data, on_budget):
    tup = st.lists(st.integers(-6, 6), min_size=width, max_size=width).map(tuple)
    elements = data.draw(st.lists(tup, min_size=1, max_size=4))
    norms = [fraction_norm(t, r) for t in elements]
    if on_budget and max(norms):
        c = max(norms)  # the largest tuple sits exactly on the budget
    ts = TruncationSet(m=width - 1, params=params(r, c), elements=tuple(elements))
    try:
        ts.validate()
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == all(norm <= c for norm in norms)


def test_count_matches_enumeration():
    for m in range(4):
        p = params(HALF, Fraction(2))
        assert count_truncations(m, p) == len(enumerate_truncations(m, p))


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(0, 5),
    r=st.fractions(min_value=0, max_value=Fraction(6, 7), max_denominator=7).filter(lambda q: q > 0),
    c=st.fractions(min_value=0, max_value=3, max_denominator=7).filter(lambda q: q > 0),
)
def test_count_and_enumeration_agree_everywhere(m, r, c):
    p = params(r, c)
    try:
        size = count_truncations(m, p, cap=10**4)
    except CardinalityCapError:
        with pytest.raises(CardinalityCapError):
            enumerate_truncations(m, p, cap=10**4)
        return
    elements = enumerate_truncations(m, p, cap=10**4).elements
    assert len(elements) == size
    assert list(elements) == sorted(set(elements))
    weights = [r**n for n in range(m + 1)]
    assert all(sum(abs(a) * w for a, w in zip(t, weights)) <= c for t in elements)


def test_cap_is_enforced():
    with pytest.raises(CardinalityCapError):
        enumerate_truncations(1, params(HALF, Fraction(1)), cap=5)
    with pytest.raises(CardinalityCapError):
        count_truncations(8, params(Fraction(9, 10), Fraction(50)), cap=10**4)


def test_cap_boundary_is_exact():
    p = params(HALF, Fraction(2))
    size = count_truncations(3, p)
    assert len(enumerate_truncations(3, p, cap=size)) == size
    assert count_truncations(3, p, cap=size) == size
    with pytest.raises(CardinalityCapError):
        enumerate_truncations(3, p, cap=size - 1)
    with pytest.raises(CardinalityCapError):
        count_truncations(3, p, cap=size - 1)


def test_huge_degree_hits_the_cap_before_building_weights():
    # the 2**(m+1) + 1 tuples (0, ..., 0, d) alone exceed the cap; building the
    # m + 1 weights of up to m bits each first took seconds at this degree
    started = time.perf_counter()
    with pytest.raises(CardinalityCapError):
        count_truncations(10**5, RadiusParams("1/2", "1/10", "1"))
    assert time.perf_counter() - started < 1


def test_negative_cap_is_rejected():
    p = params(HALF, Fraction(1))
    for call in (count_truncations, enumerate_truncations):
        with pytest.raises(ValueError, match="cap"):
            call(1, p, cap=-1)
        # a zero cap is legal; every truncation set holds the zero tuple, so it is exceeded
        with pytest.raises(CardinalityCapError):
            call(1, p, cap=0)


def test_deep_truncation_sets_need_no_recursion():
    # only the last of 1,501 coordinates has room for a nonzero digit
    p = params(HALF, HALF**1500)
    assert count_truncations(1500, p) == 3
    zeros = (0,) * 1500
    assert enumerate_truncations(1500, p).elements == (zeros + (-1,), zeros + (0,), zeros + (1,))


def test_membership_index_stays_out_of_equality_hash_and_repr():
    p = params(HALF, Fraction(1))
    looked_up = enumerate_truncations(2, p)
    assert (0, 0, 0) in looked_up and [0, -2, 0] in looked_up
    assert (0, 0, 5) not in looked_up
    fresh = enumerate_truncations(2, p)
    assert looked_up == fresh and hash(looked_up) == hash(fresh)
    assert repr(looked_up) == repr(fresh)


def test_enumerate_requires_budget():
    with pytest.raises(ValueError):
        enumerate_truncations(1, RadiusParams(HALF, Fraction(1, 10)))
    with pytest.raises(ValueError):
        enumerate_truncations(-1, params(HALF, Fraction(1)))


# --- restriction maps


def test_restrict_recovers_lower_level():
    p = params(HALF, Fraction(1))
    assert restrict(enumerate_truncations(1, p)).elements == enumerate_truncations(0, p).elements


def test_restrict_singleton_zero():
    p = params(HALF, Fraction(1, 1000))
    assert restrict(enumerate_truncations(2, p)).elements == ((0, 0),)


@pytest.mark.parametrize("m", [0, 1, 2])
def test_restriction_containment(m):
    p = params(HALF, Fraction(3, 2))
    upper = set(t[:-1] for t in enumerate_truncations(m + 1, p))
    lower = set(enumerate_truncations(m, p).elements)
    assert upper <= lower


@pytest.mark.parametrize("m", [0, 1, 2])
def test_restriction_surjective_via_zero_extension(m):
    p = params(HALF, Fraction(3, 2))
    upper = enumerate_truncations(m + 1, p)
    for tup in enumerate_truncations(m, p):
        assert tup + (0,) in upper
    assert restrict(upper).elements == enumerate_truncations(m, p).elements


def test_restrictions_compose():
    p = params(HALF, Fraction(2))
    level3 = enumerate_truncations(3, p)
    double_drop = tuple(sorted(set(t[:-2] for t in level3.elements)))
    assert restrict(restrict(level3)).elements == double_drop


def test_cardinality_monotone_in_degree():
    p = params(HALF, Fraction(2))
    sizes = [len(enumerate_truncations(m, p)) for m in range(5)]
    assert sizes == sorted(sizes)


def test_restrict_below_zero_rejected():
    with pytest.raises(ValueError):
        restrict(enumerate_truncations(0, params(HALF, Fraction(1))))


def test_expansion_certificates_appear_in_truncation_sets():
    p = RadiusParams(HALF, Fraction(1, 10), c=Fraction(8))
    ts = enumerate_truncations(3, p)
    for numerator in (1, 9, 55, 3141, -271, 9999):
        cert = expand(Fraction(numerator, 10**3), p, 10)
        if not cert.digits:
            continue
        exps = [n for n, _ in cert.digits]
        if min(exps) < 0 or max(exps) > 3:
            continue
        coeffs = dict(cert.digits)
        tup = tuple(coeffs.get(n, 0) for n in range(4))
        if fraction_norm(tup, p.r) <= p.c:
            assert tup in ts


# --- budget normalization


def test_normalize_budget_shifts_three_twice():
    k, shifted = normalize_budget(params(HALF, Fraction(3)))
    assert k == 2
    assert shifted.c == Fraction(3, 4)


def test_normalize_budget_no_op_below_one():
    k, shifted = normalize_budget(params(HALF, Fraction(1, 2)))
    assert k == 0
    assert shifted.c == Fraction(1, 2)


def test_normalize_budget_at_one_tenth():
    # 50 * (1/10)**2 = 1/2 is the first product below 1
    k, shifted = normalize_budget(params(Fraction(1, 10), Fraction(50)))
    assert k == 2
    assert shifted.c == Fraction(1, 2)


def test_normalize_budget_minimality():
    for c in (Fraction(3), Fraction(50), Fraction(999, 7)):
        p = params(HALF, c)
        k, shifted = normalize_budget(p)
        assert shifted.c < 1
        if k:
            assert p.r ** (k - 1) * c >= 1


def test_normalize_budget_requires_budget():
    with pytest.raises(ValueError):
        normalize_budget(RadiusParams(HALF, Fraction(1, 10)))
