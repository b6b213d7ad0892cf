"""Tests of the benchmark itself: generators, checks, tracer and runner.

Run from the root of a source checkout::

    python3 -m pytest -q bench/test_bench.py

They use reduced sizes, so they finish in seconds.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import families  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from skewtor.presentation import load_presentation, parse_presentation  # noqa: E402

GOLDEN = ROOT / "tests" / "golden" / "qmat3_report.json"


def solve_text(doc: dict, tmp_path: Path, name: str = "in"):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return run.Engine().solve(path)


def test_qmat_generator_reproduces_qmat3_presentation_and_golden_report(tmp_path):
    generated = parse_presentation(json.dumps(families.qmat(3)))
    committed = load_presentation(str(ROOT / "presentations" / "qmat3.json"))
    assert generated.stages == committed.stages
    code, text, _ = solve_text(families.qmat(3), tmp_path)
    assert code == 0
    assert text == GOLDEN.read_text(encoding="utf-8")


def test_generators_are_seeded():
    assert families.affine(5, 10) == families.affine(5, 10)
    assert families.affine(5, 10) != families.affine(6, 10)
    assert families.weyl(5, 1, base=4, a_terms=5) == families.weyl(5, 1, base=4, a_terms=5)
    assert families.weyl(5, 1, base=4, a_terms=5) != families.weyl(5, 2, base=4, a_terms=5)


def test_qmat_relation_check_passes_and_catches_a_wrong_embedding(tmp_path):
    from dataclasses import replace

    code, text, outcome = solve_text(families.qmat(3), tmp_path)
    assert workloads.check_qmat_relations(outcome, json.loads(text)) == []
    swapped = replace(outcome, state=replace(outcome.state, orig_expr=outcome.state.orig_expr[::-1]))
    assert workloads.check_qmat_relations(swapped, json.loads(text))


def test_affine_oracle_matches_the_engine_byte_for_byte(tmp_path):
    inst = families.affine(3, 9)
    code, text, outcome = solve_text(inst.presentation, tmp_path)
    assert code == 0
    assert text == workloads.affine_report(inst)
    assert workloads._check_affine(inst)(outcome, json.loads(text)) == []


def test_weyl_instance_ends_in_the_drawn_witness(tmp_path):
    inst = families.weyl(4, 0, base=4, a_terms=5)
    code, text, outcome = solve_text(inst.presentation, tmp_path)
    assert code == 10
    assert workloads._check_weyl(inst)(outcome, json.loads(text)) == []


def test_item4_reproducer_is_a_known_defect(tmp_path):
    # ROADMAP item 4: exit 2 today; this test flips when it is fixed
    (probe,) = workloads.weyl_probes()
    code, text, _ = solve_text(probe.doc, tmp_path)
    assert code == 2 and probe.expected_exit == 10
    assert "Weyl certificate failed" in text


def test_tracer_restores_every_binding_and_keeps_reports_identical(tmp_path):
    import skewtor.orechain
    import skewtor.scalars
    import skewtor.torus

    elem_mul = skewtor.torus.elem_mul
    from_unit = vars(skewtor.scalars.FieldElement)["from_unit"]
    plain = solve_text(families.qmat(3), tmp_path)[1]
    tr = tracer.Tracer()
    with tr:
        assert skewtor.orechain.elem_mul is not elem_mul
        assert skewtor.torus.elem_mul is not elem_mul
        assert vars(skewtor.scalars.FieldElement)["from_unit"] is not from_unit
        traced = solve_text(families.qmat(3), tmp_path)[1]
    assert tr.restored()
    assert skewtor.orechain.elem_mul is elem_mul and skewtor.torus.elem_mul is elem_mul
    assert vars(skewtor.scalars.FieldElement)["from_unit"] is from_unit
    assert traced == plain
    assert tr.calls("orechain.run_all") == 1
    assert tr.calls("torus.elem_mul") > 0 and tr.errors == 0
    spans = [s for s in tr.spans if s is not None]
    root = [s for s in spans if s[2] == "orechain.run_all"]
    assert len(root) == 1 and all(s[1] is not None for s in spans if s[2] == "orechain.run_stage")


@pytest.fixture
def small(monkeypatch, tmp_path):
    """Reduced workload sizes, with qmat3's golden report as the qmat reference."""
    refs = tmp_path / "refs"
    refs.mkdir()
    shutil.copy(GOLDEN, refs / "qmat3_report.json")
    (refs / "weyl_sha256.json").write_text(json.dumps({"shape": {}, "sha256": {}}))
    monkeypatch.setattr(workloads, "REFERENCES", refs)
    monkeypatch.setattr(workloads, "QMAT_N", 3)
    monkeypatch.setattr(workloads, "AFFINE_N", 8)
    monkeypatch.setattr(workloads, "WEYL_SHAPE", {"base": 4, "a_terms": 5})
    monkeypatch.setattr(run, "MIN_PASSES", 1)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_one_pass_smoke_run(small, workload, trace):
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(
            ["--workload", workload, "--seed", "1", "--seconds", "0.01", "--trace", str(trace)]
        )
    assert code == 0
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"] for m in bench["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == wanted
    if trace:
        assert result["metrics"]["layer_errors"]["value"] == 0
        assert result["metrics"]["known_defects"]["value"] == (workload == "weyl")
    # the fixture records no weyl reports, and the summary must say so
    assert ("no recorded report for weyl0" in out.getvalue()) == (workload == "weyl")


def test_weyl_references_cover_the_recorded_seeds():
    recorded = json.loads((workloads.REFERENCES / "weyl_sha256.json").read_text())
    assert recorded["shape"] == workloads.WEYL_SHAPE
    assert set(recorded["sha256"]) == {str(s) for s in range(workloads.WEYL_RECORDED_SEEDS)}
    assert all(i.expected_sha256 for i in workloads.weyl_inputs(workloads.WEYL_RECORDED_SEEDS - 1))
    assert not any(i.expected_sha256 for i in workloads.weyl_inputs(workloads.WEYL_RECORDED_SEEDS))


def test_validate_pairs_counts_the_comparisons_made(tmp_path, monkeypatch):
    import skewtor.orechain

    inst = families.affine(1, 8)
    with tracer.Tracer() as tr:
        solve_text(inst.presentation, tmp_path)
    # stage k validates a derivation on the k earlier generators; all are zero
    assert tr.counts["skewder.validate_pairs"] == sum(k * (k - 1) // 2 for k in range(8))
    assert tr.counts["skewder.validate_live_pairs"] == 0

    # a validator that skips pairs whose images are both zero checks none here
    original = skewtor.orechain.validate_derivation

    def skipping(d):
        if d.is_zero():
            d._validated = True
            return None
        return original(d)

    monkeypatch.setattr(skewtor.orechain, "validate_derivation", skipping)
    with tracer.Tracer() as tr:
        solve_text(inst.presentation, tmp_path)
    assert tr.counts["skewder.validate_pairs"] == 0

    with tracer.Tracer() as tr:
        solve_text(families.qmat(3), tmp_path)
    assert 0 < tr.counts["skewder.validate_live_pairs"] <= tr.counts["skewder.validate_pairs"]


def test_without_engine_source_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "qmat4", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_lists_the_registered_workloads_and_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in bench["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        name: unit for name, (unit, _) in run.LAYER_METRICS.items()
    }
