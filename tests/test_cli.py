"""End-to-end command-line behaviour, including exit codes."""

import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from laurentreal import formats
from laurentreal.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expand_decimal_example(capsys):
    code, out, _ = run(capsys, "expand", "314159/100000", "--r-prime", "1/10")
    assert code == 0
    data = json.loads(out)
    assert data["digits"] == [[0, 3], [1, 1], [2, 4], [3, 1], [4, 5], [5, 9]]
    assert data["residual"] == "0/1"


def test_expand_zero(capsys):
    code, out, _ = run(capsys, "expand", "0/1")
    assert code == 0
    assert json.loads(out)["digits"] == []


def test_expand_repeating_with_digit_cap(capsys):
    code, out, _ = run(capsys, "expand", "1/3", "--max-digits", "6")
    assert code == 0
    assert json.loads(out)["residual"] == "1/3000000"


def test_expand_bad_rational_is_usage_error(capsys):
    code, _, err = run(capsys, "expand", "one-third")
    assert code == 2
    assert "error" in err


def test_eval_kernel_generator(tmp_path, capsys):
    path = tmp_path / "series.txt"
    path.write_text("0 -1\n1 10\n")
    code, out, _ = run(capsys, "eval", str(path), "--r-prime", "1/10")
    assert code == 0
    assert out.strip() == "0/1"


def test_eval_empty_file(tmp_path, capsys):
    path = tmp_path / "zero.txt"
    path.write_text("")
    code, out, _ = run(capsys, "eval", str(path))
    assert code == 0
    assert out.strip() == "0/1"


def test_eval_three_digit_series(tmp_path, capsys):
    path = tmp_path / "series.txt"
    path.write_text("0 3\n1 1\n2 4\n")
    code, out, _ = run(capsys, "eval", str(path), "--r-prime", "1/10")
    assert code == 0
    assert out.strip() == "157/50"


def test_eval_decimal_marker(tmp_path, capsys):
    path = tmp_path / "series.txt"
    path.write_text("0 3\n1 1\n2 4\n")
    code, out, _ = run(capsys, "eval", str(path), "--decimal", "3")
    assert code == 0
    assert out.splitlines() == ["157/50", "3.140 (exact)"]


def test_eval_negative_decimal_prints_nothing(tmp_path, capsys):
    path = tmp_path / "series.txt"
    path.write_text("1 1\n")
    for extra in ([], ["--json"]):
        code, out, err = run(capsys, "eval", str(path), "--decimal", "-3", *extra)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "nonnegative" in err


def test_eval_json_input_format(tmp_path, capsys):
    path = tmp_path / "series.json"
    path.write_text(json.dumps({"terms": [[0, "-1"], [1, "10"]]}))
    code, out, _ = run(capsys, "eval", str(path), "--format", "json")
    assert code == 0
    assert out.strip() == "0/1"


def test_eval_json_rejects_non_integer_terms(tmp_path, capsys):
    path = tmp_path / "series.json"
    for payload in ('{"terms": 5}', '{"terms": [[1.7, 1e20], [0, true]]}'):
        path.write_text(payload)
        code, out, err = run(capsys, "eval", str(path), "--format", "json")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


def test_eval_malformed_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("0 1.5\n")
    code, _, err = run(capsys, "eval", str(path))
    assert code == 2
    assert "error" in err


def test_eval_missing_file_is_usage_error(tmp_path, capsys):
    code, _, err = run(capsys, "eval", str(tmp_path / "absent.txt"))
    assert code == 2


def test_divide_sign_flip(tmp_path, capsys):
    path = tmp_path / "series.txt"
    path.write_text("0 -1\n1 10\n")
    code, out, _ = run(capsys, "divide", str(path), "--base", "10")
    assert code == 0
    assert out == "0 -1\n"


def test_divide_remainder_path(tmp_path, capsys):
    path = tmp_path / "series.txt"
    path.write_text("1 1\n")
    code, out, err = run(capsys, "divide", str(path), "--base", "10")
    assert code == 3
    assert "not divisible" in err
    assert out == "1 1\n"


def test_kernel_check_member(tmp_path, capsys):
    path = tmp_path / "series.txt"
    path.write_text("0 -1\n1 10\n")
    code, out, _ = run(capsys, "kernel-check", str(path), "--base", "10", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["evaluates_to_zero"] is True
    assert data["division"]["divisible"] is True
    assert data["routes_agree"] is True


def test_kernel_check_non_member(tmp_path, capsys):
    path = tmp_path / "series.txt"
    path.write_text("0 3\n1 1\n")
    code, out, _ = run(capsys, "kernel-check", str(path), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["evaluates_to_zero"] is False
    assert data["division"]["divisible"] is False
    assert data["routes_agree"] is True


def test_enumerate_count_only(capsys):
    code, out, _ = run(capsys, "enumerate", "--m", "1", "--r", "1/2", "--c", "1", "--count-only")
    assert code == 0
    assert out.strip() == "7"


def test_enumerate_lists_tuples(capsys):
    code, out, _ = run(capsys, "enumerate", "--m", "1", "--r", "1/2", "--c", "1")
    assert code == 0
    rows = out.strip().splitlines()
    assert len(rows) == 7
    assert "0,-2" in rows and "-1,0" in rows


def test_enumerate_cap_exit_code(capsys):
    code, _, err = run(capsys, "enumerate", "--m", "1", "--r", "1/2", "--c", "1", "--cap", "3")
    assert code == 4
    assert "cap" in err


def test_negative_cap_is_usage_error(capsys):
    flags = ("enumerate", "--m", "1", "--r", "1/2", "--c", "1")
    for extra in ([], ["--count-only"]):
        code, out, err = run(capsys, *flags, "--cap", "-1", *extra)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "cap" in err
        code, out, _ = run(capsys, *flags, "--cap", "0", *extra)
        assert code == 4
        assert out == ""


def test_deep_enumeration_hits_the_cap(capsys):
    # 1,501 levels: a recursive walk would exceed Python's recursion limit
    for extra in ([], ["--count-only"]):
        code, out, err = run(capsys, "enumerate", "--m", "1500", "--r", "1/2", "--c", "1", *extra)
        assert code == 4
        assert out == ""
        assert err.startswith("error:") and "cap" in err


@pytest.mark.parametrize("r", ["2", "1", "0", "-1/2"])
def test_enumerate_radius_error_names_only_r(r, capsys):
    for extra in ([], ["--count-only"]):
        code, out, err = run(capsys, "enumerate", "--m", "2", f"--r={r}", "--c", "1", *extra)
        assert (code, out) == (2, "")
        assert err == f"error: --r must lie in (0, 1), got {r}\n"


def test_base_r_prime_consistency_enforced(capsys):
    code, _, err = run(capsys, "verify", "--r-prime", "1/10", "--base", "7", "--trials", "1")
    assert code == 2
    assert "inconsistent" in err


def test_base_below_two_is_usage_error(capsys):
    code, out, err = run(capsys, "verify", "--base", "0", "--trials", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "--base" in err


def test_verify_rejects_nonpositive_trials(capsys):
    for trials in ("0", "-5"):
        code, out, err = run(capsys, "verify", "--trials", trials)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "trials" in err


def test_verify_passes_and_is_deterministic(capsys):
    code, first, _ = run(capsys, "verify", "--seed", "42", "--trials", "60", "--json")
    assert code == 0
    report = json.loads(first)
    assert report["passed"] is True
    assert len(report["properties"]) == 4
    code, second, _ = run(capsys, "verify", "--seed", "42", "--trials", "60", "--json")
    assert code == 0
    assert first == second


def test_verify_human_output(capsys):
    code, out, _ = run(capsys, "verify", "--trials", "30")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert all(line.startswith("PASS") for line in lines)


def test_expand_pipes_into_eval(tmp_path, capsys):
    rng = random.Random(5)
    for _ in range(10):
        x = Fraction(rng.randint(-10**4, 10**4), rng.randint(1, 10**4))
        # "--" keeps argparse from reading a negative rational as a flag
        code, out, _ = run(capsys, "expand", "--", f"{x.numerator}/{x.denominator}")
        assert code == 0
        cert = json.loads(out)
        series_text = "".join(f"{n} {a}\n" for n, a in cert["digits"])
        path = tmp_path / "digits.txt"
        path.write_text(series_text)
        code, out, _ = run(capsys, "eval", str(path))
        assert code == 0
        value = formats.parse_rational(out.strip())
        assert value == x - formats.parse_rational(cert["residual"])


def test_series_file_integers_follow_the_grammar(tmp_path, capsys):
    path = tmp_path / "series.txt"
    for text in ("0 1_000\n", "1 ٣\n", "2 +5\n", "0 1_000\n1 ٣\n2 +5\n"):
        path.write_text(text, encoding="utf-8")
        for command in ("eval", "kernel-check", "divide"):
            code, out, err = run(capsys, command, str(path))
            assert code == 2
            assert out == ""
            assert err.startswith("error:")


def test_json_series_integers_follow_the_grammar(tmp_path, capsys):
    path = tmp_path / "series.json"
    for field in ("+1", " 2 ", "1_0"):
        path.write_text(json.dumps({"terms": [[0, field]]}))
        code, out, err = run(capsys, "eval", str(path), "--format", "json")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


INTEGER_FLAGS = [
    ("expand", "1/3", "--max-digits"),
    ("eval", "FILE", "--decimal"),
    ("kernel-check", "FILE", "--base"),
    ("divide", "FILE", "--base"),
    ("enumerate", "--c", "1", "--m"),
    ("enumerate", "--m", "1", "--c", "1", "--cap"),
    ("verify", "--base"),
    ("verify", "--trials"),
    ("verify", "--seed"),
    ("verify", "--max-digits"),
]


@pytest.mark.parametrize("head", INTEGER_FLAGS, ids=lambda head: " ".join(head))
def test_integer_flags_follow_the_grammar(head, tmp_path, capsys):
    path = tmp_path / "series.txt"
    path.write_text("0 1\n")
    argv = [str(path) if arg == "FILE" else arg for arg in head]
    dest = head[-1].lstrip("-").replace("-", "_")
    assert getattr(build_parser().parse_args([*argv, "10"]), dest) == 10
    for value in ("1_0", "+10", " 10", "١٠"):
        with pytest.raises(SystemExit) as exc:
            main([*argv, value])
        assert exc.value.code == 2
        assert "invalid" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [("expand", "1.5"), ("expand", "1e-5"), ("expand", "1e-10000000"),
     ("expand", "1/3", "--r", "0.5"), ("expand", "1/3", "--r-prime", "0.1"),
     ("enumerate", "--m", "1", "--c", "1.5"),
     ("enumerate", "--m", "2", "--c", "1_0", "--count-only")],
    ids=" ".join,
)
def test_loose_rationals_are_usage_errors(argv, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "not a rational" in err


# Each hostile input exits 2 with an "error:" line, empty stdout and no
# traceback.  r_prime = 2/7 has no kernel generator, so divide,
# kernel-check and verify must refuse it rather than pick a base.
HOSTILE_INPUTS = {
    "divide quotient at 2/7": (["divide", "FILE", "--r-prime", "2/7"], "0 -1\n1 10\n"),
    "divide zero at 2/7": (["divide", "FILE", "--r-prime", "2/7"], "0 2\n1 -7\n"),
    "kernel-check at 2/7": (["kernel-check", "FILE", "--r-prime", "2/7"], "0 2\n1 -7\n"),
    "verify at 2/7": (["verify", "--r-prime", "2/7", "--trials", "1"], None),
    "json duplicate exponent": (
        ["eval", "FILE", "--format", "json"], json.dumps({"terms": [[0, "1"], [0, "-1"]]})),
    "json nested 100000 deep": (["eval", "FILE", "--format", "json"], "[" * 100_000 + "]" * 100_000),
    "base 1_0": (["verify", "--base", "1_0"], None),
}


@pytest.mark.parametrize("case", HOSTILE_INPUTS)
def test_hostile_inputs_are_usage_errors(case, tmp_path, capsys):
    argv, content = HOSTILE_INPUTS[case]
    path = tmp_path / "input"
    if content is not None:
        path.write_text(content)
    try:
        code = main([str(path) if arg == "FILE" else arg for arg in argv])
    except SystemExit as exc:  # argparse rejects a flag value before main's handlers
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert any(line.startswith("error:") or ": error: " in line for line in err.splitlines())
    assert "Traceback" not in err and "parse_int" not in err


# Each command reads only the radii of its computation, so a radius flag it
# does not read is an unknown argument, and so is an abbreviated flag.  The
# series file holds 1 - 2T.
RADIUS_FLAGS = {
    "divide at base 2": (["divide", "FILE", "--base", "2"], 0, "0 1\n"),
    "kernel-check at base 2": (
        ["kernel-check", "FILE", "--base", "2"], 0,
        "evaluates to zero at 1/2: True\ndivisible by 1 - 2*T: True\nroutes agree: True\n"),
    "eval at 3/4": (["eval", "FILE", "--r-prime", "3/4"], 0, "-1/2\n"),
    "eval with --r": (["eval", "FILE", "--r", "1/20"], 2, ""),
    "kernel-check with --r": (["kernel-check", "FILE", "--r", "3/4", "--base", "2"], 2, ""),
    "divide with --r": (["divide", "FILE", "--r", "3/4"], 2, ""),
    "enumerate with --r-prime": (
        ["enumerate", "--m", "1", "--r", "1/2", "--c", "1", "--r-prime", "1/10"], 2, ""),
    "enumerate with --count": (
        ["enumerate", "--m", "1", "--r", "1/2", "--c", "1", "--count"], 2, ""),
}


@pytest.mark.parametrize("case", RADIUS_FLAGS)
def test_commands_take_only_the_radii_they_read(case, tmp_path, capsys):
    argv, expected_code, expected_out = RADIUS_FLAGS[case]
    path = tmp_path / "series.txt"
    path.write_text("0 1\n1 -2\n")
    try:
        code = main([str(path) if arg == "FILE" else arg for arg in argv])
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, out) == (expected_code, expected_out)
    if expected_code == 2:
        assert "unrecognized arguments" in err


def test_option_strings_of_each_command():
    subparsers = next(a for a in build_parser()._actions if a.dest == "command")
    options = {
        name: [s for a in p._actions if a.dest != "help" for s in a.option_strings]
        for name, p in subparsers.choices.items()
    }
    assert options == {
        "expand": ["--r", "--r-prime", "--max-digits"],
        "eval": ["--r-prime", "--format", "--decimal", "--json"],
        "kernel-check": ["--r-prime", "--base", "--json"],
        "divide": ["--r-prime", "--base"],
        "enumerate": ["--m", "--r", "--c", "--cap", "--count-only"],
        "verify": ["--r", "--r-prime", "--base", "--trials", "--seed", "--max-digits", "--json"],
    }


def call(capsys, argv):
    """(exit code, stdout, stderr) of one in-process main call, argparse exits included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_main_builds_the_parser_once(capsys):
    build_parser.cache_clear()
    for _ in range(5):
        assert call(capsys, ["enumerate", "--m", "1", "--c", "1", "--count-only"]) == (0, "7\n", "")
    info = build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 4)


def test_import_does_not_build_the_parser():
    # built on the first main call, so an import (the benchmark's setup_s) does not pay for it
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import laurentreal.cli as cli; "
             "print(cli.build_parser.cache_info().currsize)")
    src = str(Path(formats.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", probe, src], capture_output=True, text=True,
                          check=True, timeout=60)
    assert done.stdout == "0\n"


# Calls that a parser keeping state would answer differently the second
# time: an output flag then none, an argparse exit 2 then a valid call.
REUSE_SEQUENCE = [
    ["verify", "--trials", "3", "--json"],
    ["verify", "--trials", "3"],
    ["eval", "FILE", "--decimal", "5"],
    ["eval", "FILE"],
    ["eval", "FILE", "--decimal", "x"],
    ["eval", "FILE", "--format", "json", "--json"],
    ["enumerate", "--m", "1", "--c", "1", "--count"],
    ["enumerate", "--m", "1", "--c", "1"],
    ["divide", "--help"],
    ["kernel-check", "FILE", "--base", "2"],
]


def test_reused_parser_answers_like_a_fresh_one(tmp_path, capsys):
    path = tmp_path / "series.txt"
    path.write_text("0 1\n1 -2\n")
    (tmp_path / "series.json").write_text('{"terms": [[0, "1"], [1, "-2"]]}')
    argvs = [[str(path) if arg == "FILE" else arg for arg in argv] for argv in REUSE_SEQUENCE]
    argvs[5][1] = str(tmp_path / "series.json")
    build_parser.cache_clear()
    shared = [call(capsys, argv) for argv in argvs]
    assert build_parser.cache_info().misses == 1
    fresh = []
    for argv in argvs:
        build_parser.cache_clear()
        fresh.append(call(capsys, argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 0, 0, 2, 0, 2, 0, 0, 0]
