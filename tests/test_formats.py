"""Wire formats: series text, series JSON, rationals, certificate JSON."""

from fractions import Fraction

import pytest
from hypothesis import given

from laurentreal import LaurentSeries, RadiusParams, expand
from laurentreal import formats

from conftest import rationals, series

PARAMS = RadiusParams(Fraction(1, 2), Fraction(1, 10))


def test_rational_format():
    assert formats.format_rational(Fraction(0)) == "0/1"
    assert formats.format_rational(Fraction(-3, 7)) == "-3/7"


def test_rational_parse():
    assert formats.parse_rational("314159/100000") == Fraction(314159, 100000)
    assert formats.parse_rational(" 5 ") == 5
    with pytest.raises(ValueError):
        formats.parse_rational("three halves")
    with pytest.raises(ValueError):
        formats.parse_rational("1/0")


@given(q=rationals)
def test_rational_round_trip(q):
    assert formats.parse_rational(formats.format_rational(q)) == q


def test_series_text_blank_is_zero():
    assert formats.parse_series_text("") == LaurentSeries.zero()
    assert formats.parse_series_text("\n  \n") == LaurentSeries.zero()


def test_series_text_round_trip_example():
    f = LaurentSeries({-2: 3, 0: -1, 1: 10})
    text = formats.format_series_text(f)
    assert text == "-2 3\n0 -1\n1 10\n"
    assert formats.parse_series_text(text) == f


@given(f=series)
def test_series_text_round_trip(f):
    assert formats.parse_series_text(formats.format_series_text(f)) == f


def test_series_text_rejects_malformed_lines():
    with pytest.raises(ValueError):
        formats.parse_series_text("0 1 2\n")
    with pytest.raises(ValueError):
        formats.parse_series_text("0 1.5\n")
    with pytest.raises(ValueError):
        formats.parse_series_text("0 1\n0 2\n")  # duplicate exponent is ambiguous
    with pytest.raises(ValueError):
        formats.parse_series_text("0 x\n")


def test_series_text_accepts_any_exponent_order():
    assert formats.parse_series_text("1 10\n0 -1\n") == LaurentSeries({0: -1, 1: 10})


def test_series_json_preserves_big_coefficients():
    big = 10**40 + 7
    f = LaurentSeries({-1: -big, 3: big})
    data = formats.series_to_json_dict(f)
    assert data == {"terms": [[-1, str(-big)], [3, str(big)]]}
    assert formats.series_from_json_dict(data) == f


def test_series_json_rejects_malformed():
    with pytest.raises(ValueError):
        formats.series_from_json_dict({"trems": []})
    with pytest.raises(ValueError):
        formats.series_from_json_dict({"terms": [[0]]})
    with pytest.raises(ValueError):
        formats.series_from_json_dict({"terms": 5})
    with pytest.raises(ValueError):
        formats.series_from_json_dict({"terms": "0 1"})


@pytest.mark.parametrize(
    "entry", [[1.7, 1], [0, 1e20], [0, 1.0], [0, True], [True, 1], [0, "1.5"], [0, None]]
)
def test_series_json_rejects_non_integer_fields(entry):
    with pytest.raises(ValueError):
        formats.series_from_json_dict({"terms": [entry]})


def test_series_json_accepts_int_and_string_coefficients():
    data = {"terms": [[0, 7], [2, "-3"]]}
    assert formats.series_from_json_dict(data) == LaurentSeries({0: 7, 2: -3})


def test_certificate_wire_format_is_exactly_five_keys():
    cert = expand(Fraction(314159, 100000), PARAMS, 40)
    data = formats.certificate_to_json_dict(cert)
    assert set(data) == {"x", "r", "r_prime", "digits", "residual"}
    assert data["digits"] == [[0, 3], [1, 1], [2, 4], [3, 1], [4, 5], [5, 9]]
    assert data["residual"] == "0/1"


@given(x=rationals)
def test_certificate_round_trip(x):
    cert = expand(x, PARAMS, 20)
    data = formats.certificate_to_json_dict(cert)
    assert formats.certificate_from_json_dict(data) == cert


def test_certificate_tampering_rejected():
    cert = expand(Fraction(1, 3), PARAMS, 6)
    data = formats.certificate_to_json_dict(cert)
    data["digits"][0] = [1, 99]
    with pytest.raises(ValueError):
        formats.certificate_from_json_dict(data)


def test_certificate_with_altered_digits_and_residual_rejected():
    # digits and residual within every bound, but summing to 99/100, not 1/3
    data = formats.certificate_to_json_dict(expand(Fraction(1, 3), PARAMS, 5))
    data["digits"] = [[1, 9], [2, 9]]
    data["residual"] = "0/1"
    with pytest.raises(ValueError, match="do not sum to x"):
        formats.certificate_from_json_dict(data)


def test_certificate_with_altered_residual_rejected():
    data = formats.certificate_to_json_dict(expand(Fraction(1, 3), PARAMS, 5))
    data["residual"] = "1/300001"
    with pytest.raises(ValueError, match="do not sum to x"):
        formats.certificate_from_json_dict(data)


@pytest.mark.parametrize("value", [5, 0.5, None, ["1/3"]])
def test_parse_rational_rejects_non_strings(value):
    with pytest.raises(ValueError):
        formats.parse_rational(value)


@pytest.mark.parametrize("key", ["x", "r", "r_prime", "residual"])
def test_certificate_non_string_rational_is_value_error(key):
    data = formats.certificate_to_json_dict(expand(Fraction(1, 3), PARAMS, 5))
    data[key] = 5
    with pytest.raises(ValueError):
        formats.certificate_from_json_dict(data)


@pytest.mark.parametrize("key", ["x", "r", "r_prime", "digits", "residual"])
def test_certificate_missing_key_is_named(key):
    data = formats.certificate_to_json_dict(expand(Fraction(1, 3), PARAMS, 6))
    del data[key]
    with pytest.raises(ValueError, match=repr(key)):
        formats.certificate_from_json_dict(data)


def test_format_decimal_exact_and_truncated():
    assert formats.format_decimal(Fraction(157, 50), 4) == ("3.1400", True)
    assert formats.format_decimal(Fraction(1, 3), 4) == ("0.3333", False)
    assert formats.format_decimal(Fraction(-1, 8), 3) == ("-0.125", True)
    assert formats.format_decimal(Fraction(5), 0) == ("5", True)


@pytest.mark.parametrize("text, value", [("0", 0), ("-0", 0), ("007", 7), ("-12", -12)])
def test_parse_int_accepts_ascii_decimal(text, value):
    assert formats.parse_int(text) == value


@pytest.mark.parametrize(
    "text", ["", "-", "--1", "+1", " 2 ", "2 ", "1_0", "٣", "²", "1.0", "0x1", "1e3"]
)
def test_parse_int_rejects_everything_else(text):
    with pytest.raises(ValueError):
        formats.parse_int(text)


@pytest.mark.parametrize("field", ["+1", " 2 ", "1_0", "٣"])
def test_series_json_rejects_loose_integer_strings(field):
    with pytest.raises(ValueError):
        formats.series_from_json_dict({"terms": [[0, field]]})
    with pytest.raises(ValueError):
        formats.series_from_json_dict({"terms": [[field, 1]]})


@pytest.mark.parametrize("text", ["0 1_000\n", "1 ٣\n", "2 +5\n", "0 1\n1 1_0\n"])
def test_series_text_rejects_loose_integers(text):
    with pytest.raises(ValueError):
        formats.parse_series_text(text)


@pytest.mark.parametrize("text, value", [("-3/4", Fraction(-3, 4)), ("6/4", Fraction(3, 2)),
                                         ("\t0/1\n", Fraction(0)), ("-0", Fraction(0))])
def test_rational_grammar_accepts(text, value):
    assert formats.parse_rational(text) == value


@pytest.mark.parametrize(
    "text",
    ["1.5", "0.5", ".5", "1e-5", "1e-10000000", "+1/2", "1/-2", "1/+2", "1_0/3", "1/ 2",
     "1 /2", "1/", "/2", "1/2/3", "٣/4", "-", ""],
)
def test_rational_grammar_rejects(text):
    with pytest.raises(ValueError):
        formats.parse_rational(text)


def test_certificate_digits_follow_the_integer_grammar():
    data = formats.certificate_to_json_dict(expand(Fraction(1, 3), PARAMS, 3))
    data["digits"] = [[n, f"+{a}"] for n, a in data["digits"]]
    with pytest.raises(ValueError):
        formats.certificate_from_json_dict(data)
