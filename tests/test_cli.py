"""Command dispatch, exit codes, report determinism."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from skewtor import ArityMismatch, InputError, UnknownIdentifier
from skewtor.cli import main
from skewtor.presentation import parse_presentation

P = "presentations"
BENCH = Path(__file__).resolve().parent.parent / "bench"


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
    sys.path.insert(0, str(BENCH))
    try:
        import families
    finally:
        sys.path.remove(str(BENCH))
    f = tmp_path / "qmat4.json"
    f.write_text(json.dumps(families.qmat(4)), encoding="utf-8")
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
    from skewtor.presentation import load_presentation, render_presentation

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
        from skewtor.presentation import render_presentation as rp

        assert rp(again) == text
