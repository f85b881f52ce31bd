"""Finitely supported integral Laurent series and their exact arithmetic.

Series are maps from integer exponents (possibly negative) to nonzero
integer coefficients.  All norms and distances are exact rationals;
floating point never enters this module.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Mapping
from fractions import Fraction

RationalLike = Fraction | int | str


def exact_fraction(value: RationalLike, what: str = "value") -> Fraction:
    """Coerce to an exact Fraction, rejecting floats outright.

    Floats are refused rather than converted: Fraction(0.1) is exact but
    almost never the rational the caller meant.
    """
    if isinstance(value, float):
        raise TypeError(f"{what} must be an exact rational, got float {value!r}")
    return Fraction(value)


def power_sum(terms: Iterable[tuple[int, int]], x: Fraction) -> Fraction:
    """Exact sum of a * x**n over (n, a) pairs with distinct exponents, x > 0.

    Homogenized Horner in plain integers: with x = p/q and exponents
    between lo and hi, descending from hi accumulates
    sum a_n * p**(n - lo) * q**(hi - n), and the value is that integer
    times p**lo / q**hi.  A gap of g exponents costs one pow, so sparse,
    wide series stay cheap; one Fraction is built at the end.
    """
    pairs = sorted(terms, reverse=True)
    if not pairs:
        return Fraction(0)
    p, q = x.numerator, x.denominator
    hi = previous = pairs[0][0]
    acc = 0
    q_power = 1  # q**(hi - n) at the current exponent n
    for n, a in pairs:
        gap = previous - n
        if gap:
            acc *= p**gap
            q_power *= q**gap
        acc += a * q_power
        previous = n
    numerator, denominator = acc, 1
    if previous >= 0:
        numerator *= p**previous
    else:
        denominator *= p**-previous
    if hi >= 0:
        denominator *= q**hi
    else:
        numerator *= q**-hi
    return Fraction(numerator, denominator)


class LaurentSeries:
    """An integral Laurent series with finite support.

    Stored as an exponent -> coefficient map with no zero coefficients,
    so two series are equal exactly when their maps are equal.  Instances
    are immutable; all operations return new series.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        store: dict[int, int] = {}
        for exponent, coefficient in items:
            if not isinstance(exponent, int) or isinstance(exponent, bool):
                raise TypeError(f"exponent must be an integer, got {exponent!r}")
            if not isinstance(coefficient, int) or isinstance(coefficient, bool):
                raise TypeError(f"coefficient must be an integer, got {coefficient!r}")
            if coefficient:
                store[exponent] = store.get(exponent, 0) + coefficient
                if not store[exponent]:
                    del store[exponent]
        self._coeffs = store

    @classmethod
    def _trusted(cls, store: dict[int, int]) -> LaurentSeries:
        """Wrap a library-built dict of int exponents to nonzero ints, unchecked."""
        out = object.__new__(cls)
        out._coeffs = store
        return out

    @classmethod
    def term(cls, coefficient: int, exponent: int = 0) -> LaurentSeries:
        """The single-term series coefficient * T**exponent."""
        return cls({exponent: coefficient})

    @classmethod
    def zero(cls) -> LaurentSeries:
        return cls()

    @classmethod
    def one(cls) -> LaurentSeries:
        return cls({0: 1})

    def coefficient(self, exponent: int) -> int:
        """Coefficient of T**exponent (0 when absent)."""
        return self._coeffs.get(exponent, 0)

    def support(self) -> tuple[int, ...]:
        """Exponents with nonzero coefficient, ascending."""
        return tuple(sorted(self._coeffs))

    def items(self) -> Iterator[tuple[int, int]]:
        """(exponent, coefficient) pairs in ascending exponent order."""
        return iter(sorted(self._coeffs.items()))

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __len__(self) -> int:
        return len(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    def __neg__(self) -> LaurentSeries:
        return LaurentSeries._trusted({n: -a for n, a in self._coeffs.items()})

    def __add__(self, other: LaurentSeries) -> LaurentSeries:
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        merged = dict(self._coeffs)
        for n, a in other._coeffs.items():
            s = merged.get(n, 0) + a
            if s:
                merged[n] = s
            elif n in merged:
                del merged[n]
        return LaurentSeries._trusted(merged)

    def __sub__(self, other: LaurentSeries) -> LaurentSeries:
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: LaurentSeries) -> LaurentSeries:
        """Cauchy product; exact, support bounds add."""
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        acc: dict[int, int] = {}
        for n1, a1 in self._coeffs.items():
            for n2, a2 in other._coeffs.items():
                k = n1 + n2
                s = acc.get(k, 0) + a1 * a2
                if s:
                    acc[k] = s
                elif k in acc:
                    del acc[k]
        return LaurentSeries._trusted(acc)

    def __pow__(self, exponent: int) -> LaurentSeries:
        if not isinstance(exponent, int) or isinstance(exponent, bool) or exponent < 0:
            raise ValueError("series powers must be nonnegative integers")
        result = LaurentSeries.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def shift(self, k: int) -> LaurentSeries:
        """Multiply by T**k: translate every exponent by k.

        Scales the weighted norm exactly: r_norm(shift(f, k), r) equals
        r**k * r_norm(f, r).
        """
        if not isinstance(k, int) or isinstance(k, bool):
            raise TypeError("shift amount must be an integer")
        return LaurentSeries._trusted({n + k: a for n, a in self._coeffs.items()})

    def r_norm(self, r: RationalLike) -> Fraction:
        """Weighted coefficient norm: sum of |a_n| * r**n, exact.

        Requires 0 < r < 1.
        """
        r = exact_fraction(r, "radius r")
        if not (0 < r < 1):
            raise ValueError(f"radius r must lie in (0, 1), got {r}")
        return power_sum(((n, abs(a)) for n, a in self._coeffs.items()), r)

    def t_valuation(self) -> int | float:
        """Least exponent with nonzero coefficient; +infinity for the zero series."""
        if not self._coeffs:
            return math.inf
        return min(self._coeffs)

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for n, a in sorted(self._coeffs.items()):
            if n == 0:
                term = str(a)
            elif n == 1:
                term = f"{a}*T"
            else:
                term = f"{a}*T^{n}"
            parts.append(term)
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"LaurentSeries({self})"


class FrozenRecord:
    """Immutable value: eq, hash and repr as a frozen dataclass's, over _fields.

    A subclass's __init__ checks its arguments and sets them with _store;
    assignment and deletion raise AttributeError.
    """

    _fields: tuple[str, ...] = ()

    def _store(self, **values) -> None:
        vars(self).update(values)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({inner})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class RadiusParams(FrozenRecord):
    """The radius pair fixing the ring and the evaluation point.

    Requires 0 < r_prime < r < 1 strictly, and c > 0 when a norm budget
    is given.  Accepts ints, Fractions, or "p/q" strings; floats are
    rejected.
    """

    _fields = ("r", "r_prime", "c")

    def __init__(self, r: RationalLike, r_prime: RationalLike, c: RationalLike | None = None):
        r = exact_fraction(r, "r")
        r_prime = exact_fraction(r_prime, "r_prime")
        if c is not None:
            c = exact_fraction(c, "c")
        if not (0 < r_prime < r < 1):
            raise ValueError(f"need 0 < r_prime < r < 1, got r_prime={r_prime}, r={r}")
        if c is not None and c <= 0:
            raise ValueError(f"norm budget c must be positive, got {c}")
        self._store(r=r, r_prime=r_prime, c=c)

    def with_budget(self, c: RationalLike) -> RadiusParams:
        return RadiusParams(self.r, self.r_prime, exact_fraction(c, "c"))


class TAdicParams(FrozenRecord):
    """Base delta of the T-adic ultrametric; a free parameter in (0, 1)."""

    _fields = ("delta",)

    def __init__(self, delta: RationalLike = Fraction(1, 2)):
        delta = exact_fraction(delta, "delta")
        if not (0 < delta < 1):
            raise ValueError(f"delta must lie in (0, 1), got {delta}")
        self._store(delta=delta)


def t_adic_distance(
    f: LaurentSeries, g: LaurentSeries, params: TAdicParams | None = None
) -> Fraction:
    """Ultrametric distance delta ** t_valuation(f - g); zero when f == g."""
    if params is None:
        params = TAdicParams()
    diff = f - g
    if not diff:
        return Fraction(0)
    return params.delta ** diff.t_valuation()


def in_budget(f: LaurentSeries, params: RadiusParams) -> bool:
    """Whether the weighted norm of f stays within the budget c (boundary included)."""
    if params.c is None:
        raise ValueError("in_budget requires params with a norm budget c")
    return f.r_norm(params.r) <= params.c
