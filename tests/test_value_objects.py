"""The immutable value classes: repr, equality, hashing, immutability, copying.

The pinned reprs are those the classes printed as frozen dataclasses;
every constructor is called by keyword so the keyword names stay pinned.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from laurentreal import (
    ContinuityBound,
    ExpansionCertificate,
    KernelGenerator,
    RadiusParams,
    TAdicParams,
    TruncationSet,
)

P = "RadiusParams(r=Fraction(1, 2), r_prime=Fraction(1, 10), c=None)"
P_C = "RadiusParams(r=Fraction(1, 2), r_prime=Fraction(1, 10), c=Fraction(1, 1))"


def params(c=None):
    return RadiusParams(r="1/2", r_prime=Fraction(1, 10), c=c)


# (constructor, pinned repr, its fields)
CASES = [
    (lambda: params(), P, ("r", "r_prime", "c")),
    (lambda: params(c=1), P_C, ("r", "r_prime", "c")),
    (lambda: TAdicParams(), "TAdicParams(delta=Fraction(1, 2))", ("delta",)),
    (lambda: TAdicParams(delta="1/3"), "TAdicParams(delta=Fraction(1, 3))", ("delta",)),
    (
        lambda: ContinuityBound(agreement_order=3, budget=Fraction(2), params=params()),
        f"ContinuityBound(agreement_order=3, budget=Fraction(2, 1), params={P}, "
        "bound=Fraction(1, 25))",
        ("agreement_order", "budget", "params", "bound"),
    ),
    (
        lambda: ExpansionCertificate(
            target=Fraction(1, 7), params=params(), digits=((1, 1), (2, 4), (3, 2)),
            residual=Fraction(3, 3500), exponent_floor=1,
        ),
        f"ExpansionCertificate(target=Fraction(1, 7), params={P}, "
        "digits=((1, 1), (2, 4), (3, 2)), residual=Fraction(3, 3500), exponent_floor=1, "
        "digit_bound=Fraction(11, 1), norm_budget=Fraction(11, 1))",
        ("target", "params", "digits", "residual", "exponent_floor", "digit_bound",
         "norm_budget"),
    ),
    (
        lambda: ExpansionCertificate(
            target=Fraction(0), params=params(), digits=(), residual=Fraction(0),
            exponent_floor=None,
        ),
        f"ExpansionCertificate(target=Fraction(0, 1), params={P}, digits=(), "
        "residual=Fraction(0, 1), exponent_floor=None, digit_bound=Fraction(11, 1), "
        "norm_budget=Fraction(0, 1))",
        ("target", "digits", "exponent_floor", "norm_budget"),
    ),
    (
        lambda: KernelGenerator(base=10),
        "KernelGenerator(base=10, sign=1, poly=LaurentSeries(1 - 10*T))",
        ("base", "sign", "poly"),
    ),
    (
        lambda: KernelGenerator(base=3, sign=-1),
        "KernelGenerator(base=3, sign=-1, poly=LaurentSeries(-1 + 3*T))",
        ("base", "sign", "poly"),
    ),
    (
        lambda: TruncationSet(m=1, params=params(c=1), elements=((-1, 0), (0, 0), (1, 0))),
        f"TruncationSet(m=1, params={P_C}, elements=((-1, 0), (0, 0), (1, 0)))",
        ("m", "params", "elements"),
    ),
]
IDS = [pinned.split("(")[0] + str(i) for i, (_, pinned, _) in enumerate(CASES)]


@pytest.mark.parametrize("make, pinned, fields", CASES, ids=IDS)
def test_repr_is_pinned(make, pinned, fields):
    assert repr(make()) == pinned


@pytest.mark.parametrize("make, pinned, fields", CASES, ids=IDS)
def test_equal_instances_are_equal_and_hash_equal(make, pinned, fields):
    first, second = make(), make()
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)


def test_equality_needs_the_same_class_and_values():
    values = [make() for make, _, _ in CASES]
    for i, a in enumerate(values):
        for j, b in enumerate(values):
            assert (a == b) == (i == j)
    assert params() != (Fraction(1, 2), Fraction(1, 10), None)


@pytest.mark.parametrize("make, pinned, fields", CASES, ids=IDS)
def test_assignment_and_deletion_raise(make, pinned, fields):
    obj = make()
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(obj, name, getattr(obj, name))
        with pytest.raises(AttributeError):
            delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.unrelated = 1
    assert repr(obj) == pinned


def continuity(**extra):
    return ContinuityBound(agreement_order=1, budget=Fraction(1), params=params(), **extra)


def empty_certificate(**extra):
    return ExpansionCertificate(
        target=Fraction(0), params=params(), digits=(), residual=Fraction(0),
        exponent_floor=None, **extra,
    )


@pytest.mark.parametrize(
    "build, derived",
    [
        (continuity, "bound"),
        (empty_certificate, "digit_bound"),
        (empty_certificate, "norm_budget"),
        (lambda **extra: KernelGenerator(base=10, **extra), "poly"),
    ],
)
def test_derived_fields_are_not_arguments(build, derived):
    build()
    with pytest.raises(TypeError):
        build(**{derived: Fraction(1)})


@pytest.mark.parametrize("make, pinned, fields", CASES, ids=IDS)
def test_pickle_and_deepcopy_round_trip(make, pinned, fields):
    obj = make()
    for clone in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj), copy.copy(obj)):
        assert clone == obj and hash(clone) == hash(obj)
        assert repr(clone) == pinned
        with pytest.raises(AttributeError):
            setattr(clone, fields[0], None)


def test_truncation_set_round_trips_after_a_lookup():
    elements = ((-1, 0), (0, 0), (1, 0))
    looked_up = TruncationSet(m=1, params=params(c=1), elements=elements)
    assert (0, 0) in looked_up
    for clone in (pickle.loads(pickle.dumps(looked_up)), copy.deepcopy(looked_up)):
        assert clone == looked_up
        assert (1, 0) in clone and (0, 1) not in clone
