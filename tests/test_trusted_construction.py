"""Library-built series go through one unchecked constructor and stay canonical.

LaurentSeries.__init__ checks and canonicalizes outside input;
LaurentSeries._trusted wraps dicts the library built itself.  Only those
two may set _coeffs, and every series an operation returns must equal its
own re-check through __init__.
"""

import ast
import random
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from laurentreal import (
    KernelGenerator,
    LaurentSeries,
    NotDivisibleError,
    divide,
    formats,
    inverse_truncation,
)
from laurentreal.verify import random_series

from conftest import coefficients, exponents, random_budgeted_series, series, shift_amounts

SOURCE = Path(__file__).resolve().parent.parent / "src" / "laurentreal"
ALLOWED = {("series.py", "LaurentSeries", "__init__"), ("series.py", "LaurentSeries", "_trusted")}


def coeffs_writes(path: Path) -> list[str]:
    """Places that assign, delete or setattr _coeffs outside the allowed methods."""
    found = []

    def visit(node: ast.AST, cls: str | None, function: str | None) -> None:
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        writes = (
            isinstance(node, ast.Attribute) and node.attr == "_coeffs"
            and isinstance(node.ctx, (ast.Store, ast.Del))
        ) or (
            isinstance(node, ast.Call) and len(node.args) >= 2
            and getattr(node.func, "id", getattr(node.func, "attr", None))
            in ("setattr", "__setattr__")
            and isinstance(node.args[1], ast.Constant) and node.args[1].value == "_coeffs"
        )
        if writes and (path.name, cls, function) not in ALLOWED:
            found.append(f"{path.name}:{node.lineno} in {cls}.{function}")
        for child in ast.iter_child_nodes(node):
            visit(child, cls, function)

    visit(ast.parse(path.read_text(), filename=str(path)), None, None)
    return found


def test_coeffs_set_only_by_the_two_constructors():
    files = sorted(SOURCE.glob("*.py"))
    assert files
    assert [write for path in files for write in coeffs_writes(path)] == []


def test_guard_catches_other_writes(tmp_path):
    sample = tmp_path / "series.py"
    sample.write_text(
        "class LaurentSeries:\n"
        "    def __init__(self):\n"
        "        self._coeffs = {}\n"
        "    def __neg__(self):\n"
        "        out = LaurentSeries()\n"
        "        out._coeffs = {}\n"
        "        out._coeffs, x = {}, 1\n"
        "        del out._coeffs\n"
        "        setattr(out, '_coeffs', {})\n"
        "        object.__setattr__(out, '_coeffs', {})\n"
        "        getattr(out, '_coeffs')\n"
        "def helper(s):\n"
        "    s._coeffs = {}\n"
    )
    assert len(coeffs_writes(sample)) == 6


def assert_canonical(s: LaurentSeries) -> None:
    for n, a in s._coeffs.items():
        assert type(n) is int and type(a) is int and a != 0
    assert s == LaurentSeries(dict(s.items()))


generators = st.builds(KernelGenerator, st.integers(2, 12), st.sampled_from([1, -1]))


@settings(max_examples=150)
@given(f=series, g=series, k=shift_amounts, e=st.integers(0, 3), gen=generators,
       perturb=series, N=st.integers(0, 12))
def test_operations_return_canonical_series(f, g, k, e, gen, perturb, N):
    for result in (-f, f + g, f - g, f + (-f), f * g, f**e, f.shift(k),
                   inverse_truncation(gen, N)):
        assert_canonical(result)
    for dividend in (gen.poly * f, gen.poly * f + perturb):
        try:
            assert_canonical(divide(dividend, gen))
        except NotDivisibleError as exc:
            assert_canonical(exc.quotient_prefix)
            assert_canonical(exc.remainder)


@given(seed=st.integers(0, 2**32 - 1), max_coeff=st.integers(0, 3))
def test_random_generators_return_canonical_series(seed, max_coeff):
    rng = random.Random(seed)
    assert_canonical(random_series(rng, max_coeff=max_coeff, max_terms=12))
    assert_canonical(random_series(rng))
    assert_canonical(random_budgeted_series(rng, Fraction(2, 3), Fraction(5), -3, 8))


class Int(int):
    """An int subclass, which the JSON reader takes as an integer."""


@given(terms=st.dictionaries(exponents, st.integers(-2, 2) | coefficients, max_size=8))
def test_parsers_return_canonical_series(terms):
    text = "".join(f"{n} {a}\n" for n, a in terms.items())
    parsed = (
        formats.parse_series_text(text),
        formats.series_from_json_dict({"terms": [[n, str(a)] for n, a in terms.items()]}),
        formats.series_from_json_dict({"terms": [[Int(n), Int(a)] for n, a in terms.items()]}),
    )
    for got in parsed:
        assert_canonical(got)
        assert got == LaurentSeries(terms)
