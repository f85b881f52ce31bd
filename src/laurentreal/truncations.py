"""Finite truncation sets of budgeted series and their restriction maps.

The degree-m truncation set collects all coefficient tuples
(a_0, ..., a_m) with sum of |a_n| * r**n at most c.  Each coordinate is
bounded by floor(c * r**-n), so the sets are finite, and dropping the
last coordinate maps the level-(m+1) set onto the level-m set.  The
chain of these restriction maps is the inverse system whose limit is the
full budgeted space; here it is materialized exactly, at desk scale.

Enumeration, counting and validation work over cleared denominators:
with r = p/q and c = u/v the budget condition becomes an integer
inequality sum |a_n| * v * p**n * q**(m-n) <= u * q**m, which keeps the
inner loops in plain integer arithmetic.
"""

from __future__ import annotations

from fractions import Fraction

from .series import FrozenRecord, RadiusParams

DEFAULT_CAP = 10**7


class CardinalityCapError(RuntimeError):
    """Enumeration would exceed the configured cardinality cap."""

    def __init__(self, m: int, params: RadiusParams, cap: int):
        super().__init__(
            f"truncation set at degree {m} with r={params.r}, c={params.c} "
            f"exceeds the cardinality cap {cap}; raise the cap to proceed"
        )
        self.cap = cap


class TruncationSet(FrozenRecord):
    """All degree-m coefficient tuples within the norm budget, lex ordered."""

    _fields = ("m", "params", "elements")

    def __init__(self, m: int, params: RadiusParams, elements: tuple[tuple[int, ...], ...]):
        # _lookup is not a field: the membership index, built on first use
        self._store(m=m, params=params, elements=elements, _lookup=None)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, tup) -> bool:
        if self._lookup is None:
            self._store(_lookup=frozenset(self.elements))
        return tuple(tup) in self._lookup

    def validate(self) -> None:
        """Re-check every stored tuple against the exact norm bound."""
        weights, budget = _integer_weights(self.m, self.params.r, self.params.c)
        for tup in self.elements:
            if len(tup) != self.m + 1:
                raise ValueError(f"tuple {tup} has wrong length for degree {self.m}")
            if sum(abs(a) * w for a, w in zip(tup, weights)) > budget:
                raise ValueError(f"tuple {tup} has norm above budget {self.params.c}")


def _integer_weights(m: int, r: Fraction, c: Fraction) -> tuple[list[int], int]:
    """Weights and budget of the integer budget inequality, exponents 0..m."""
    p, q = r.numerator, r.denominator
    u, v = c.numerator, c.denominator
    weights = [v * p**n * q ** (m - n) for n in range(m + 1)]
    return weights, u * q**m


def enumerate_truncations(
    m: int, params: RadiusParams, cap: int = DEFAULT_CAP
) -> TruncationSet:
    """Exhaustively enumerate the degree-m truncation set in lexicographic order.

    Digit ranges shrink with the budget remaining after each prefix, so
    only admissible tuples are ever produced.  The set is counted first,
    so CardinalityCapError is raised before any tuple is built when it has
    more than cap elements.
    """
    _check_enumeration_args(m, params, cap)
    weights, budget = _integer_weights(m, params.r, params.c)
    _count(weights, budget, m, params, cap)
    out: list[tuple[int, ...]] = []
    # depth first without recursion; children are pushed in reverse so
    # they pop in ascending order, and each pending prefix holds a tuple
    stack: list[tuple[tuple[int, ...], int]] = [((), budget)]
    while stack:
        prefix, remaining = stack.pop()
        level = len(prefix)
        bound = remaining // weights[level]
        if level == m:
            out.extend(prefix + (d,) for d in range(-bound, bound + 1))
        else:
            w = weights[level]
            stack.extend(
                (prefix + (d,), remaining - abs(d) * w) for d in range(bound, -bound - 1, -1)
            )
    return TruncationSet(m=m, params=params, elements=tuple(out))


def count_truncations(m: int, params: RadiusParams, cap: int = DEFAULT_CAP) -> int:
    """Cardinality of the degree-m truncation set, without materializing it."""
    _check_enumeration_args(m, params, cap)
    weights, budget = _integer_weights(m, params.r, params.c)
    return _count(weights, budget, m, params, cap)


def _count(weights: list[int], budget: int, m: int, params: RadiusParams, cap: int) -> int:
    """Tuples within the integer budget; CardinalityCapError once above cap.

    Depth first without recursion.  d and -d leave the same remaining
    budget, so a pending prefix carries a multiplicity instead of being
    visited twice, and the last level is summed in one pass.  Every
    prefix extends to at least one tuple, so finished tuples plus pending
    multiplicities bound the count from below; that bound is checked
    before any digit range is walked, so the work stays proportional to
    cap even when a single range is astronomically wide.
    """
    last = weights[m]
    total = 0
    pending = 1  # sum of the multiplicities on the stack
    stack = [(0, budget, 1)]  # (level, remaining budget, multiplicity)
    while stack:
        level, remaining, mult = stack.pop()
        pending -= mult
        if remaining < last:  # weights decrease, so only the zero tail fits
            total += mult
            continue
        w = weights[level]
        bound = remaining // w
        if total + pending + mult * (2 * bound + 1) > cap:
            raise CardinalityCapError(m, params, cap)
        if level == m:
            total += mult * (2 * bound + 1)
        elif level == m - 1:
            leaves = 2 * (remaining // last) + 1
            for d in range(1, bound + 1):
                leaves += 4 * ((remaining - d * w) // last) + 2
            total += mult * leaves
        else:
            stack.append((level + 1, remaining, mult))
            stack.extend((level + 1, remaining - d * w, 2 * mult) for d in range(1, bound + 1))
            pending += mult * (2 * bound + 1)
    if total > cap:
        raise CardinalityCapError(m, params, cap)
    return total


def _check_enumeration_args(m: int, params: RadiusParams, cap: int) -> None:
    if not isinstance(m, int) or m < 0:
        raise ValueError(f"degree m must be a nonnegative integer, got {m}")
    if not isinstance(cap, int) or cap < 0:
        raise ValueError(f"cardinality cap must be a nonnegative integer, got {cap}")
    if params.c is None:
        raise ValueError("enumeration requires params with a norm budget c")
    # the 2*floor(c * r**-m) + 1 tuples (0, ..., 0, d) are all in the set;
    # checking them first keeps a huge m from building O(m**2) bits of weights
    r, c = params.r, params.c
    if 2 * (c.numerator * r.denominator**m // (c.denominator * r.numerator**m)) + 1 > cap:
        raise CardinalityCapError(m, params, cap)


def restrict(truncations: TruncationSet) -> TruncationSet:
    """Drop the top coordinate of every tuple: the map from level m to m-1.

    Dropping a nonnegative-exponent term cannot increase the norm, so the
    image lands inside the lower truncation set; it is in fact all of it,
    since any lower tuple extends by a zero coordinate.
    """
    if truncations.m < 1:
        raise ValueError("cannot restrict below degree 0")
    reduced = sorted(set(tup[:-1] for tup in truncations.elements))
    return TruncationSet(
        m=truncations.m - 1, params=truncations.params, elements=tuple(reduced)
    )


def normalize_budget(params: RadiusParams) -> tuple[int, RadiusParams]:
    """Smallest k >= 0 with r**k * c < 1, plus the shifted parameters.

    Shifting by T**k carries budget c into budget r**k * c exactly, so
    this reduces any budget to the sub-unit regime.
    """
    if params.c is None:
        raise ValueError("normalize_budget requires params with a norm budget c")
    k = 0
    scaled = params.c
    while scaled >= 1:
        scaled *= params.r
        k += 1
    return k, params.with_budget(scaled)
