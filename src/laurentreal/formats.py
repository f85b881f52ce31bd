"""Text and JSON wire formats for series, rationals, and expansion certificates.

Series text format: one term per line, "<exponent> <coefficient>" in
decimal with exponents strictly increasing; a blank file is the zero
series.  The JSON alternative is {"terms": [[n, "a_n"], ...]} with
coefficients as decimal strings so arbitrary precision survives JSON.
Integers are ASCII -?[0-9]+; rationals are read as p/q or p and written "p/q".
"""

from __future__ import annotations

from fractions import Fraction

from .expansion import ExpansionCertificate, min_exponent
from .series import LaurentSeries, RadiusParams, power_sum


def format_rational(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def parse_int(text: str) -> int:
    """Parse an integer written -?[0-9]+: ASCII digits, no "+", "_" or spaces."""
    if not (isinstance(text, str) and text.removeprefix("-").isdigit() and text.isascii()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def parse_rational(text: str) -> Fraction:
    """Parse -?[0-9]+(/[0-9]+)?, spaces around allowed, into an exact Fraction."""
    if not isinstance(text, str):
        raise ValueError(f"a rational must be a \"p/q\" string, got {text!r}")
    p, slash, q = text.strip().partition("/")
    if q.startswith("-"):
        raise ValueError(f"not a rational: {text!r}")
    try:
        return Fraction(parse_int(p), parse_int(q) if slash else 1)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


def format_series_text(f: LaurentSeries) -> str:
    """Series text format; empty string for the zero series."""
    return "".join(f"{n} {a}\n" for n, a in f.items())


def parse_series_text(text: str) -> LaurentSeries:
    """Parse the series text format.

    Lines may arrive in any exponent order (canonical output is ascending),
    but a repeated exponent is ambiguous and rejected.
    """
    # with no "_", "+" or non-ASCII character, int() takes exactly -?[0-9]+
    if not text.isascii() or "_" in text or "+" in text:
        raise ValueError("series fields must be ASCII integers -?[0-9]+")
    terms: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(f"line {lineno}: expected '<exponent> <coefficient>', got {raw!r}")
        try:
            exponent, coefficient = int(fields[0]), int(fields[1])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: non-integer field in {raw!r}") from exc
        if exponent in terms:
            raise ValueError(f"line {lineno}: duplicate exponent {exponent}")
        terms[exponent] = coefficient
    # int fields and no repeated exponent: only the zero terms are left to drop
    return LaurentSeries._trusted({n: a for n, a in terms.items() if a})


def series_to_json_dict(f: LaurentSeries) -> dict:
    return {"terms": [[n, str(a)] for n, a in f.items()]}


def _json_int(value) -> int:
    # floats and bools are refused, as in the core, rather than truncated;
    # an int subclass comes back as a plain int
    if isinstance(value, int) and not isinstance(value, bool):
        return int(value)
    return parse_int(value)


def _json_terms(entries) -> list[tuple[int, int]]:
    """A JSON array of [n, a] pairs as integer pairs (ints or decimal strings)."""
    if not isinstance(entries, list):
        raise ValueError(f"expected an array of [n, a] pairs, got {type(entries).__name__}")
    terms = []
    for entry in entries:
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise ValueError(f"malformed term {entry!r}")
        terms.append((_json_int(entry[0]), _json_int(entry[1])))
    return terms


def series_from_json_dict(data: dict) -> LaurentSeries:
    if not isinstance(data, dict) or "terms" not in data:
        raise ValueError("series JSON must be an object with a 'terms' array")
    terms: dict[int, int] = {}
    for exponent, coefficient in _json_terms(data["terms"]):
        if exponent in terms:
            raise ValueError(f"duplicate exponent {exponent} in series JSON")
        terms[exponent] = coefficient
    return LaurentSeries._trusted({n: a for n, a in terms.items() if a})


def certificate_to_json_dict(cert: ExpansionCertificate) -> dict:
    """The fixed five-key certificate wire format."""
    return {
        "x": format_rational(cert.target),
        "r": format_rational(cert.params.r),
        "r_prime": format_rational(cert.params.r_prime),
        "digits": [[n, a] for n, a in cert.digits],
        "residual": format_rational(cert.residual),
    }


def certificate_from_json_dict(data: dict) -> ExpansionCertificate:
    """Rebuild a certificate from its wire format; the bound fields are derived.

    Checked: all five keys are present, the rationals are "p/q" strings,
    the digits are integer pairs, the ExpansionCertificate invariants hold
    against the exponent floor of x (strictly increasing exponents, digit
    bound, floor, residual bound; the norm bound follows from these), and x
    equals the digit series' value at r_prime plus the residual, so altered
    digits or residuals are rejected.
    """
    if not isinstance(data, dict):
        raise ValueError("certificate JSON must be an object")
    for key in ("x", "r", "r_prime", "digits", "residual"):
        if key not in data:
            raise ValueError(f"certificate JSON lacks the {key!r} key")
    params = RadiusParams(parse_rational(data["r"]), parse_rational(data["r_prime"]))
    target = parse_rational(data["x"])
    cert = ExpansionCertificate(
        target=target,
        params=params,
        digits=tuple(_json_terms(data["digits"])),
        residual=parse_rational(data["residual"]),
        exponent_floor=min_exponent(target, params.r_prime) if target != 0 else None,
    )
    if power_sum(cert.digits, params.r_prime) + cert.residual != target:
        raise ValueError("certificate digits plus residual do not sum to x")
    return cert


def format_decimal(
    q: Fraction, digits: int
) -> tuple[str, bool]:
    """Decimal rendering of q to the requested fractional digits.

    Returns (text, exact); exact is True when the decimal terminates
    within the requested digits, otherwise the text is truncated toward
    zero.
    """
    if digits < 0:
        raise ValueError("digit count must be nonnegative")
    sign = "-" if q < 0 else ""
    scaled = abs(q) * 10**digits
    integer_part = int(scaled)  # truncation toward zero
    exact = integer_part == scaled
    text = str(integer_part).rjust(digits + 1, "0")
    if digits:
        text = f"{text[:-digits]}.{text[-digits:]}"
    return sign + text, exact
