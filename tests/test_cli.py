"""Command dispatch, exit codes, report determinism."""

import contextlib
import io
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewtor import (
    ArityMismatch,
    InputError,
    SelectiveSpace,
    ToricAutomorphism,
    TorusElement,
    UnknownIdentifier,
    qrs,
)
from skewtor.cli import main
from skewtor.presentation import PresentationFile, StandaloneBlock, parse_presentation

from helpers import (
    BENCH,
    CTX,
    UNIT_POOL,
    U,
    bench_families,
    inner_derivation,
    matrix_from_upper,
    render_presentation,
    sigma_made_inner,
)

P = "presentations"


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_case_a(capsys):
    code, out, _ = run_cli(["run", f"{P}/qmat2x2_caseA.json"], capsys)
    assert code == 0
    assert "torus embedding" in out
    assert "d = x1*x4 - q*x2*x3" in out


def test_run_case_b_exit_10(capsys):
    code, out, _ = run_cli(["run", f"{P}/qmat2x2_caseB.json"], capsys)
    assert code == 10
    assert "Weyl algebra witness" in out
    assert "x2^-1*x3^-1*x4" in out


def test_run_qmat3_json_format(capsys):
    code, out, _ = run_cli(["run", f"{P}/qmat3.json", "--format", "json"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["outcome"] == "torus_embedding"
    assert rep["inverted"] == ["x11", "x12", "x21", "y22"]
    assert rep["matrix"][8] == ["1"] * 9
    assert "y22 = x11*x22 - q*x12*x21" in rep["provenance"]


def test_run_json_deterministic(capsys):
    code1, out1, _ = run_cli(
        ["run", f"{P}/qmat3.json", "--format", "json", "--trace"], capsys
    )
    code2, out2, _ = run_cli(
        ["run", f"{P}/qmat3.json", "--format", "json", "--trace"], capsys
    )
    assert code1 == code2 == 0
    assert out1 == out2


def test_golden_report_matches(capsys):
    code, out, _ = run_cli(
        ["run", f"{P}/qmat3.json", "--format", "json", "--trace"], capsys
    )
    assert code == 0
    with open("tests/golden/qmat3_report.json", encoding="utf-8") as fh:
        assert out == fh.read()


def test_qmat4_report_matches_the_benchmark_reference(tmp_path, capsys):
    # O_q(M_4) from the benchmark's generator, against its recorded report:
    # a change to the scalar layer must leave every byte of it as it is
    f = tmp_path / "qmat4.json"
    f.write_text(json.dumps(bench_families().qmat(4)), encoding="utf-8")
    code, out, _ = run_cli(["run", str(f), "--format", "json", "--trace"], capsys)
    assert code == 0
    assert out == (BENCH / "references" / "qmat4_report.json").read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "args", [["run", f"{P}/qmat3.json"], ["check", f"{P}/classify_uqsl2.json"]]
)
@pytest.mark.parametrize("value", ["abc", "0"])
def test_bad_max_degree_is_rejected_before_any_stage(monkeypatch, capsys, args, value):
    monkeypatch.setenv("SKEWTOR_MAX_DEGREE", value)
    code, out, err = run_cli(args, capsys)
    assert code == 1 and out == ""
    assert err == f"error: SKEWTOR_MAX_DEGREE must be a positive integer, got {value!r}\n"


def test_max_degree_caps_every_command(monkeypatch, capsys):
    monkeypatch.setenv("SKEWTOR_MAX_DEGREE", "2")
    code, _, err = run_cli(["run", f"{P}/qmat3.json"], capsys)
    assert code == 1 and "exceeds SKEWTOR_MAX_DEGREE=2" in err
    expr = "(K + E)*(K + E)"
    code, _, err = run_cli(["eval", f"{P}/classify_uqsl2.json", "--expr", expr], capsys)
    assert code == 1 and "exceeds SKEWTOR_MAX_DEGREE=2" in err
    monkeypatch.delenv("SKEWTOR_MAX_DEGREE")
    code, out, _ = run_cli(["eval", f"{P}/classify_uqsl2.json", "--expr", expr], capsys)
    assert code == 0 and out == "E^2 + (1 + q^-2)*K*E + K^2\n"


def test_missing_file_exit_1(capsys):
    code, _, err = run_cli(["run", "no_such_file.json"], capsys)
    assert code == 1
    assert "error" in err


def test_bad_json_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(["run", str(bad)], capsys)
    assert code == 1
    assert "JSON" in err


def test_malformed_sigma_token(tmp_path, capsys):
    f = tmp_path / "p.json"
    f.write_text(
        json.dumps(
            {
                "parameters": ["q"],
                "stages": [{"name": "a"}, {"name": "b", "sigma": ["q^"]}],
            }
        ),
        encoding="utf-8",
    )
    code, _, err = run_cli(["run", str(f)], capsys)
    assert code == 1
    assert "position" in err


STAGES = [{"name": "x"}, {"name": "y", "sigma": ["q"]}]
BLOCK = {"generators": ["a", "b"], "matrix": [["1", "q"], ["q^-1", "1"]], "lambda": ["1", "q"]}


def _with_stage(stage):
    return {"parameters": ["q"], "stages": [*STAGES, stage]}


def _with_block(**entries):
    return {"parameters": ["q"], **BLOCK, **entries}


@pytest.mark.parametrize(
    "doc, message",
    [
        (
            {"parameters": ["q"], "stages": [{"name": "x"}, {"name": "y", "sigma": ["q+1"]}]},
            "stages[1]: sigma[0]: 'q+1' is not an invertible monomial scalar",
        ),
        (
            _with_stage({"name": "z", "sigma": ["q", "1"], "delta": ["x $ 2"]}),
            "stages[2]: delta[0]: unexpected character (at position 1: 'x' ^ ' $ 2')",
        ),
        (
            # the same bad text twice: the first occurrence is named
            {
                "parameters": ["q"],
                "stages": [
                    *STAGES,
                    {"name": "z", "sigma": ["q", "r"]},
                    {"name": "w", "sigma": ["r", "q", "1"]},
                ],
            },
            "stages[2]: sigma[1]: unknown parameter(s) ['r'] in 'r'",
        ),
        (
            _with_block(matrix=[["1", "q"], ["q^-1", "q $"]]),
            "matrix[1][1]: unexpected character (at position 1: 'q' ^ ' $')",
        ),
        (
            _with_block(matrix=[["1", "q + 1"], ["q^-1", "q + 1"]]),
            "matrix[0][1]: 'q + 1' is not an invertible monomial scalar",
        ),
        (
            _with_block(**{"lambda": ["1", "1/0"]}),
            "lambda[1]: division by zero scalar",
        ),
        (
            _with_block(derivation={"b": "a $"}),
            "derivation['b']: unexpected character (at position 1: 'a' ^ ' $')",
        ),
        (
            _with_block(derivation={"b": "c"}),
            "derivation['b']: unknown identifier(s) ['c'] in 'c'",
        ),
    ],
    ids=[
        "sigma", "delta", "repeated", "matrix-syntax", "matrix-unit", "lambda",
        "derivation-syntax", "derivation-unknown",
    ],
)
def test_scalar_entry_errors_name_the_entry(tmp_path, capsys, doc, message):
    f = tmp_path / "p.json"
    f.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(["check", str(f)], capsys)
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("value", [None, True, 0.5], ids=["null", "true", "0.5"])
@pytest.mark.parametrize(
    "doc, where",
    [
        (lambda v: _with_stage({"name": "z", "sigma": ["q", v]}), "stages[2]: sigma[1]"),
        (lambda v: _with_block(matrix=[["1", v], ["q^-1", "1"]]), "matrix[0][1]"),
        (lambda v: _with_block(**{"lambda": [v, "q"]}), "lambda[0]"),
        (lambda v: _with_block(derivation={"b": v}), "derivation['b']"),
    ],
    ids=["sigma", "matrix", "lambda", "derivation"],
)
def test_non_string_scalar_entries_are_rejected(tmp_path, capsys, doc, where, value):
    f = tmp_path / "p.json"
    f.write_text(json.dumps(doc(value)), encoding="utf-8")
    code, out, err = run_cli(["check", str(f)], capsys)
    assert (code, out, err) == (1, "", f"error: {where} must be a string\n")


def test_integer_scalar_entries_are_accepted():
    def parse(three, one, minus_two):
        doc = _with_block(
            matrix=[[one, "q"], ["q^-1", one]],
            derivation={"a": three},
            **{"lambda": [minus_two, "q"]},
        )
        doc["stages"] = [*STAGES, {"name": "z", "sigma": [three, one]}]
        return parse_presentation(json.dumps(doc))

    as_ints, as_text = parse(3, 1, -2), parse("3", "1", "-2")
    assert as_ints.stages == as_text.stages
    assert as_ints.block.space.Q.entries == as_text.block.space.Q.entries
    assert as_ints.block.sigma.lambdas == as_text.block.sigma.lambdas
    assert as_ints.block.images == as_text.block.images


# more digits than the interpreter converts between text and int by default
LONG = "1" * 5000


def test_long_json_integer_is_an_input_error(tmp_path, capsys):
    f = tmp_path / "p.json"
    f.write_text(
        '{"parameters": ["q"], "stages": [{"name": "x"}, {"name": "y", "sigma": [%s]}]}'
        % LONG,
        encoding="utf-8",
    )
    code, out, err = run_cli(["check", str(f)], capsys)
    assert (code, out, err) == (1, "", "error: not valid JSON: integer literal too long\n")


@pytest.mark.parametrize(
    "doc, where",
    [
        (_with_stage({"name": "z", "sigma": ["q", LONG]}), "stages[2]: sigma[1]"),
        (_with_stage({"name": "z", "sigma": ["q", "1"], "delta": [f"{LONG}*x"]}),
         "stages[2]: delta[0]"),
        (_with_block(derivation={"b": f"a^{LONG}"}), "derivation['b']"),
    ],
    ids=["sigma", "delta", "exponent"],
)
def test_long_integer_literal_is_a_syntax_error(tmp_path, capsys, doc, where):
    f = tmp_path / "p.json"
    f.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(["check", str(f)], capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {where}: integer literal too long (at position ")


def test_file_that_is_not_utf8_is_an_input_error(tmp_path, capsys):
    f = tmp_path / "p.json"
    f.write_bytes(b'{"parameters": [], "stages": [{"name": "x\xff"}]}')
    code, out, err = run_cli(["check", str(f)], capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot read {f}: 'utf-8' codec can't decode byte 0xff")


def test_deeply_nested_json_is_an_input_error(tmp_path, capsys):
    f = tmp_path / "p.json"
    f.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    code, out, err = run_cli(["check", str(f)], capsys)
    assert (code, out, err) == (1, "", "error: not valid JSON: nested too deeply\n")


def test_deeply_nested_expression_is_a_syntax_error(capsys):
    expr = "(" * 3000 + "E" + ")" * 3000
    code, out, err = run_cli(["eval", f"{P}/classify_uqsl2.json", "--expr", expr], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: expression nested too deeply (at position ")
    # nesting within the interpreter's depth still evaluates
    expr = "(" * 200 + "E" + ")" * 200
    code, out, _ = run_cli(["eval", f"{P}/classify_uqsl2.json", "--expr", expr], capsys)
    assert (code, out) == (0, "E\n")


def _from_digits(text: str) -> int:
    # int() of the whole text would stop at the digit limit
    value = 0
    for i in range(0, len(text), 1000):
        value = value * 10 ** len(text[i : i + 1000]) + int(text[i : i + 1000])
    return value


def test_coefficient_longer_than_the_digit_limit_is_printed(capsys):
    n = int("7" * 3000)
    code, out, err = run_cli(
        ["eval", f"{P}/classify_uqsl2.json", "--expr", f"{n}*{n}/{n + 1}*E"], capsys
    )
    assert (code, err) == (0, "")
    num, den = out.strip().removesuffix("*E").split("/")
    assert (len(num), len(den)) == (6000, 3000)
    assert Fraction(_from_digits(num), _from_digits(den)) == Fraction(n * n, n + 1)


@pytest.mark.parametrize(
    "args",
    [
        ["eval", f"{P}/classify_uqsl2.json", "--expr", "E/(E + K)"],
        ["run", "{stages}"],
    ],
    ids=["eval", "stage-delta"],
)
def test_division_by_a_sum_is_an_input_error(tmp_path, capsys, args):
    f = tmp_path / "p.json"
    f.write_text(
        json.dumps(_with_stage({"name": "z", "sigma": ["1", "1"], "delta": ["x/(x + 1)"]})),
        encoding="utf-8",
    )
    code, out, err = run_cli([a.format(stages=f) for a in args], capsys)
    assert (code, out) == (1, "")
    assert err.endswith("division by a sum is not defined here\n")


def test_check_valid_and_invalid(tmp_path, capsys):
    code, out, _ = run_cli(["check", f"{P}/qmat3.json"], capsys)
    assert code == 0 and out.strip() == "ok"

    # delta violating the relations names the failing pair
    f = tmp_path / "bad_delta.json"
    f.write_text(
        json.dumps(
            {
                "parameters": ["q"],
                "stages": [
                    {"name": "a"},
                    {"name": "b", "sigma": ["q^-1"]},
                    {"name": "c", "sigma": ["1", "1"], "delta": ["b", "0"]},
                ],
            }
        ),
        encoding="utf-8",
    )
    code, _, err = run_cli(["check", str(f)], capsys)
    assert code == 1
    assert "'a'" in err and "'b'" in err


def test_internal_error_names_its_stage(tmp_path, capsys):
    # K[x1, x2] extended by z with sigma = id, delta(x1) = 1 + x2: a valid
    # input whose two outer components at one generator defeat the witness
    f = tmp_path / "two_outer.json"
    f.write_text(
        json.dumps(
            {
                "parameters": [],
                "stages": [
                    {"name": "x1"},
                    {"name": "x2", "sigma": ["1"]},
                    {"name": "z", "sigma": ["1", "1"], "delta": ["1 + x2", "0"]},
                ],
            }
        ),
        encoding="utf-8",
    )
    code, _, err = run_cli(["run", str(f)], capsys)
    assert code == 2
    assert "stage 3 ('z')" in err
    # u = z and p = x1, so u*p - p*u is delta(x1) itself
    assert err.rstrip().endswith("Weyl certificate failed to verify; the derivation has "
                                 "conjugate-to-derivation components at several weights: "
                                 "u*p - p*u = 1 + x2")


def test_check_terminal_witness_ok(capsys):
    code, out, _ = run_cli(["check", f"{P}/qmat2x2_caseB.json"], capsys)
    assert code == 0
    assert "ok" in out


def test_classify_block(capsys):
    code, out, _ = run_cli(["classify", f"{P}/classify_uqsl2.json"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert "locally inner at E" in lines[0]
    assert "K^-1*E^-1" in lines[0]
    assert "locally inner at E" in lines[1]
    assert "K*E^-1" in lines[1]


def _block(tmp_path, **fields):
    doc = {
        "parameters": ["q"],
        "generators": ["x", "y"],
        "matrix": [["1", "q"], ["q^-1", "1"]],
        **fields,
    }
    f = tmp_path / "block.json"
    f.write_text(json.dumps(doc), encoding="utf-8")
    return str(f)


def test_classify_outer_and_inner_components(tmp_path, capsys):
    f = _block(tmp_path, **{"lambda": ["1", "1"], "derivation": {"x": "x", "y": "x*y - y*x"}})
    code, out, _ = run_cli(["classify", f], capsys)
    assert code == 0
    assert out.splitlines() == [
        "weight (0, 0): conjugate to a derivation",
        "weight (1, 0): inner, induced by x",
    ]
    code, out, _ = run_cli(["classify", f, "--format", "json"], capsys)
    assert code == 0
    kinds = [(c["weight"], c["kind"]) for c in json.loads(out)["components"]]
    assert kinds == [([0, 0], "outer_conjugate"), ([1, 0], "inner")]


@pytest.mark.parametrize("image", ["(1 - q)*x^-1*y", "x^-2*y"])
@pytest.mark.parametrize("command", ["check", "classify", "eval"])
def test_derivation_image_outside_the_space_is_an_input_error(tmp_path, capsys, command, image):
    # the first image is ad_{x^-1}, a derivation of the torus but not of the
    # quantum plane; the second supports no derivation of the plane
    f = _block(tmp_path, **{"lambda": ["1", "1"], "derivation": {"y": image}})
    args = [command, f] + (["--expr", "y", "--apply", "delta"] if command == "eval" else [])
    code, out, err = run_cli(args, capsys)
    assert (code, out) == (1, "")
    assert "derivation['y']: image leaves the space" in err


def test_eval_expression_is_a_torus_element(tmp_path, capsys):
    f = _block(tmp_path, **{"lambda": ["1", "1"], "derivation": {"y": "x*y"}})
    code, out, _ = run_cli(["eval", f, "--expr", "x^-1*y"], capsys)
    assert (code, out) == (0, "x^-1*y\n")


def test_boolean_inverted_index_is_rejected(tmp_path, capsys):
    # JSON true is the int 1 to Python; it must not invert the first generator
    code, out, err = run_cli(["eval", _block(tmp_path, inverted=[True]), "--expr", "x^-1"], capsys)
    assert code == 1
    assert out == ""
    assert "bad inverted index" in err


def test_deep_powers_in_the_leibniz_extension(tmp_path, capsys):
    # one delta(x^k) per power, filled without recursion
    f = tmp_path / "deep.json"
    f.write_text(
        json.dumps(
            {
                "parameters": ["q"],
                "stages": [
                    {"name": "x"},
                    {"name": "y", "sigma": ["q"], "delta": ["x^1000"]},
                ],
            }
        ),
        encoding="utf-8",
    )
    code, out, _ = run_cli(["run", str(f)], capsys)
    assert code == 0
    assert "  t = (-1/(q - 1))*x^999" in out.splitlines()
    block = _block(tmp_path, inverted=["x"], **{"lambda": ["q", "1"], "derivation": {"x": "x"}})
    code, out, _ = run_cli(["eval", block, "--expr", "x^-1000", "--apply", "delta"], capsys)
    assert code == 0
    # delta(x^-m) = -(q^-1 + ... + q^-m) x^-m when delta(x) = x, sigma(x) = q x
    terms = " - ".join(f"q^-{k}" for k in range(1, 1001))
    assert out.strip() == f"(-{terms})*x^-1000"


def test_deep_generator_power_in_a_delta_entry(tmp_path, capsys):
    # x^1000000 is one closed-form power, not a million products
    f = tmp_path / "deep.json"
    f.write_text(
        json.dumps(
            {
                "parameters": [],
                "stages": [{"name": "x"}, {"name": "y", "sigma": ["1"], "delta": ["x^1000000"]}],
            }
        ),
        encoding="utf-8",
    )
    code, out, _ = run_cli(["run", str(f)], capsys)
    assert code == 10
    assert "weight: (999999)" in out.splitlines()
    assert "u = x^-1000000*y" in out.splitlines()


@pytest.mark.parametrize(
    "sigma, delta, cap, what",
    [
        # [m]_chi for chi != 1 is a sum of |m| powers; chi = 1 is m in one step
        ("q", "x^99999999999999999999", None, "q-bracket length"),
        ("2", "x^99999999999999999999", None, "q-bracket length"),
        ("q", "x^1000", "100", "q-bracket length 999 "),
        # gcd cancellation is dense in the one parameter's exponent span
        ("q^99999999999999999999", "x", None, "one-parameter exponent span"),
        ("q^1000", "x", "100", "one-parameter exponent span 1001 "),
    ],
)
def test_runaway_exponents_are_input_errors(tmp_path, capsys, monkeypatch, sigma, delta, cap, what):
    if cap is not None:
        monkeypatch.setenv("SKEWTOR_MAX_DEGREE", cap)
    f = tmp_path / "huge.json"
    stages = [{"name": "x"}, {"name": "y", "sigma": [sigma], "delta": [delta]}]
    f.write_text(json.dumps({"parameters": ["q"], "stages": stages}), encoding="utf-8")
    code, out, err = run_cli(["run", str(f)], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: stage 2 ('y'): " + what)
    assert f"exceeds SKEWTOR_MAX_DEGREE={cap or 100000}" in err


def test_unexpected_exception_exits_2(monkeypatch, capsys):
    def boom(*args):
        raise ValueError("boom")

    monkeypatch.setattr("skewtor.cli.run_all", boom)
    code, out, err = run_cli(["run", f"{P}/qmat3.json"], capsys)
    assert code == 2
    assert out == ""
    assert err == "internal error: ValueError: boom\n"


def test_eval_normalizes(capsys):
    code, out, _ = run_cli(
        ["eval", f"{P}/classify_uqsl2.json", "--expr", "E*K"], capsys
    )
    assert code == 0
    assert out.strip() == "q^-2*K*E"


def test_eval_apply_sigma_and_delta(capsys):
    code, out, _ = run_cli(
        ["eval", f"{P}/classify_uqsl2.json", "--expr", "K^-2", "--apply", "sigma"],
        capsys,
    )
    assert code == 0
    assert out.strip() == "q^-4*K^-2"
    code, out, _ = run_cli(
        ["eval", f"{P}/classify_uqsl2.json", "--expr", "K", "--apply", "delta"],
        capsys,
    )
    assert code == 0
    assert out.strip() == "0"


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "skewtor", "run", f"{P}/qmat2x2_caseA.json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "torus embedding" in proc.stdout


# -- presentation validation -----------------------------------------------------


def test_arity_mismatch():
    raw = {
        "parameters": ["q"],
        "stages": [{"name": "a"}, {"name": "b", "sigma": ["q", "q"]}],
    }
    with pytest.raises(ArityMismatch):
        parse_presentation(json.dumps(raw))


def test_duplicate_names():
    raw = {"parameters": ["q"], "stages": [{"name": "a"}, {"name": "a", "sigma": ["q"]}]}
    with pytest.raises(InputError):
        parse_presentation(json.dumps(raw))


def test_unknown_name_in_delta():
    raw = {
        "parameters": ["q"],
        "stages": [
            {"name": "a"},
            {"name": "b", "sigma": ["q"], "delta": ["zz"]},
        ],
    }
    with pytest.raises(UnknownIdentifier):
        parse_presentation(json.dumps(raw))


def test_empty_stages_rejected():
    with pytest.raises(InputError):
        parse_presentation(json.dumps({"parameters": [], "stages": []}))


def test_delta_may_be_shorter():
    raw = {
        "parameters": ["q"],
        "stages": [
            {"name": "a"},
            {"name": "b", "sigma": ["q^-1"]},
            {"name": "c", "sigma": ["1", "q^-1"], "delta": ["0"]},
        ],
    }
    pres = parse_presentation(json.dumps(raw))
    assert len(pres.stages[2].delta_exprs) == 2


def test_presentation_render_round_trip():
    from skewtor.presentation import load_presentation

    for name in (
        "qmat3.json",
        "qmat2x2_caseA.json",
        "qmat2x2_caseB.json",
        "classify_uqsl2.json",
        "commutative_locally_inner.json",
        "weyl_a1.json",
    ):
        pres = load_presentation(f"{P}/{name}")
        text = render_presentation(pres)
        again = parse_presentation(text)
        # printing the reparsed file reproduces the text exactly
        assert render_presentation(again) == text


def test_each_distinct_scalar_entry_is_parsed_once(tmp_path, monkeypatch):
    import skewtor.presentation as presentation

    parse_unit = presentation.parse_unit
    calls = []

    def counting(text, ctx):
        calls.append(text)
        return parse_unit(text, ctx)

    monkeypatch.setattr(presentation, "parse_unit", counting)
    affine = tmp_path / "affine.json"
    affine.write_text(json.dumps(bench_families().affine(0, 50).presentation), encoding="utf-8")
    counts = []
    for path in (Path(P, "qmat3.json"), affine, Path(P, "classify_uqsl2.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        calls.clear()
        pres = presentation.load_presentation(str(path))
        texts = [s for stage in doc.get("stages", []) for s in stage.get("sigma", [])]
        texts += [s for row in doc.get("matrix", []) for s in row] + doc.get("lambda", [])
        assert len(calls) == len(set(texts))
        counts.append((len(calls), len(texts)))
        for raw, spec in zip(doc.get("stages", []), pres.stages or ()):
            assert spec.sigma_eigs == tuple(parse_unit(s, pres.ctx) for s in raw.get("sigma", []))
    assert counts[0] == (2, 36) and counts[2] == (3, 6)
    assert counts[1][0] < counts[1][1] == 1225


# -- strict schema, names, division by zero, parseable provenance ------------------


@pytest.mark.parametrize(
    "doc, message",
    [
        (_with_stage({"name": "z", "sigma": ["q", "1"], "detla": ["x"]}), "stages[2]: unknown key 'detla'"),
        ({"paramters": ["q"], "stages": STAGES}, "unknown key 'paramters'"),
        ({**_with_block(), "derivaton": {"a": "b"}}, "unknown key 'derivaton'"),
        ({"parameters": ["2"], "stages": [{"name": "x"}]}, "parameters[0]: '2' is not an identifier"),
        (_with_stage({"name": "a b", "sigma": ["q", "1"]}), "stages[2]: name: 'a b' is not an identifier"),
        (_with_stage({"name": "z", "sigma": ["q", "1"], "rename": "z'"}),
         "stages[2]: rename: \"z'\" is not an identifier"),
        ({"parameters": ["q"], **BLOCK, "generators": ["a", "é"]},
         "generators[1]: 'é' is not an identifier"),
        (_with_stage({"name": "z", "sigma": ["q", "1"], "delta": ["1/(q - q)"]}),
         "stage 3 ('z'): division by zero"),
    ],
    ids=["stage-key", "file-key", "block-key", "parameter", "name", "rename", "generator", "zero"],
)
def test_input_errors_name_their_entry(tmp_path, capsys, doc, message):
    f = tmp_path / "p.json"
    f.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(["check", str(f)], capsys)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_dividing_by_zero_in_eval_is_named(capsys):
    code, out, err = run_cli(["eval", f"{P}/classify_uqsl2.json", "--expr", "E/(K - K)"], capsys)
    assert (code, out, err) == (1, "", "error: division by zero\n")


def test_provenance_with_a_negative_t_parses_back(tmp_path, capsys):
    from skewtor import CommutationMatrix, elem_mul, run_all
    from skewtor.presentation import parse_element, parse_unit

    # the quantum Weyl algebra y*x = 2*x*y + 1: deleting its derivation
    # subtracts t = -1, a single term that prints with a leading minus
    doc = {"stages": [{"name": "x"}, {"name": "y", "sigma": ["2"], "delta": ["1"]}]}
    f = tmp_path / "p.json"
    f.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run_cli(["run", str(f), "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["provenance"] == ["w2 = x*y - (-1)"]
    rhs = json.loads(out)["provenance"][0].split(" = ")[1]

    pres = parse_presentation(json.dumps(doc))
    ctx = pres.ctx
    t = run_all(ctx, pres.stages).state.provenance[1].t
    half, one = parse_unit("1/2", ctx), parse_unit("1", ctx)
    Q = CommutationMatrix(ctx, [[one, half], [half.inv(), one]])  # x*y = 1/2*y*x
    x, y = (parse_element(name, ctx, Q, ("x", "y")) for name in ("x", "y"))
    assert parse_element(rhs, ctx, Q, ("x", "y")) == elem_mul(Q, x, y) - t.extend_to(2)


# -- the paper's dichotomy on random quantum affine spaces ----------------------


@st.composite
def _affine_blocks(draw):
    """A standalone block over a random quantum affine space with n <= 3 and
    a random inverted subset, carrying one of four kinds of derivation:
    inner ``ad_a``, a single component ``x_j -> x^(d+e_j)`` with sigma
    induced by ``x^-d``, a component at a weight with -1 at one
    non-inverted index, or random monomial images."""
    n = draw(st.integers(1, 3))
    units = st.sampled_from(UNIT_POOL).map(U)
    Q = matrix_from_upper(CTX, n, {(i, j): draw(units) for i in range(n) for j in range(i + 1, n)})
    inverted = draw(st.sets(st.integers(0, n - 1)))
    zero = TorusElement.zero(CTX, n)
    kind = draw(st.sampled_from(["inner", "outer", "local", "random"]))
    if kind == "inner":
        sig = ToricAutomorphism(CTX, tuple(draw(units) for _ in range(n)))
        a = TorusElement.monomial(CTX, n, draw(st.tuples(*[st.integers(-2, 2)] * n)))
        images = inner_derivation(Q, sig, a).images
    elif kind == "outer":
        d = draw(st.tuples(*[st.integers(-1, 2)] * n))
        sig = sigma_made_inner(None, Q, d)
        j = draw(st.integers(0, n - 1))
        images = [zero] * n
        images[j] = TorusElement.monomial(CTX, n, tuple(k + (i == j) for i, k in enumerate(d)))
    elif kind == "local":
        j = draw(st.integers(0, n - 1))
        d = [draw(st.integers(-1, 2)) if i in inverted else draw(st.integers(0, 2)) for i in range(n)]
        d[j] = -1
        # drops vanish off j, so only x_j has a nonzero image
        lam_j = draw(units | st.just(qrs(Q, tuple(d), j)[0]))
        sig = ToricAutomorphism(
            CTX, tuple(lam_j if i == j else qrs(Q, tuple(d), i)[0] for i in range(n))
        )
        images = [zero] * n
        images[j] = TorusElement.monomial(CTX, n, tuple(k + (i == j) for i, k in enumerate(d)))
    else:
        sig = ToricAutomorphism(CTX, tuple(draw(units) for _ in range(n)))
        exps = st.tuples(*[st.integers(-1, 2)] * n)
        images = [
            TorusElement.monomial(CTX, n, draw(exps)) if draw(st.booleans()) else zero
            for _ in range(n)
        ]
    names = tuple(f"x{i + 1}" for i in range(n))
    block = StandaloneBlock(names, SelectiveSpace(Q, inverted), sig, tuple(images))
    return render_presentation(PresentationFile(CTX, None, block))


def _exit_code(args) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(args)


@settings(max_examples=120, deadline=None)
@given(_affine_blocks())
def test_valid_blocks_classify_and_invalid_ones_are_input_errors(tmp_path_factory, text):
    # check, classify and eval end in exit 0 or 1, never in an internal
    # error, and every block that check accepts classifies
    f = tmp_path_factory.getbasetemp() / "random_block.json"
    f.write_text(text, encoding="utf-8")
    checked = _exit_code(["check", str(f)])
    classified = _exit_code(["classify", str(f)])
    applied = _exit_code(["eval", str(f), "--expr", "x1", "--apply", "delta"])
    assert {checked, classified, applied} <= {0, 1}, text
    if checked == 0:
        assert classified == 0, text
