"""The benchmark workloads: generated inputs, their references and checks.

Each input carries what its outcome must be: the exit class, the sha256 of
the exact ``--format json --trace`` report when it is known, and an
independent check of the outcome that does not rely on recorded bytes.

* ``qmat4`` is deterministic; its report was recorded once in
  ``references/qmat4_report.json`` and its embedding must satisfy every
  defining relation of O_q(M_4).
* ``affine`` has an exact oracle: with every delta zero, the whole report
  follows from the generated matrix, so the expected bytes are built here.
* ``weyl`` reports were recorded as digests for seeds 0 to
  ``WEYL_RECORDED_SEEDS - 1`` in ``references/weyl_sha256.json``; every seed
  is checked for exit 10, a certified witness, the drawn weight and
  ``p = x_{j0}``.  An input without a recorded report is named on the
  benchmark's summary line.

``record_references.py`` regenerates the recorded files.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import families

REFERENCES = Path(__file__).resolve().parent / "references"

EXIT_OK, EXIT_WEYL = 0, 10

QMAT_N = 4
AFFINE_N = 50
WEYL_INSTANCES = 3
WEYL_SHAPE = {"base": 8, "a_terms": 20}  # keyword arguments of families.weyl
WEYL_RECORDED_SEEDS = 100  # weyl reports are recorded for seeds 0..99


@dataclass(frozen=True)
class Input:
    name: str
    doc: dict
    expected_exit: int
    expected_sha256: str | None  # None: no recorded report for this input
    # check(outcome, report) -> problems; sees the engine's objects
    check: Callable[[object, dict], list[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    inputs: Callable[[int], list[Input]]
    # known-defect reproducers: run once per run, outside the timed passes
    probes: Callable[[], list[Input]] = lambda: []


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def report_text(report: dict) -> str:
    """The engine's ``to_json`` format: two-space indent, UTF-8, newline."""
    return json.dumps(report, indent=2, ensure_ascii=False) + "\n"


# -- qmat4 ---------------------------------------------------------------------


def check_qmat_relations(outcome, report: dict) -> list[str]:
    """Substitute ``orig_expr`` into every defining relation of O_q(M_n).

    In shell order an earlier x_ij is never south-east of a later x_lm, so
    for each ordered pair the relation is one of: same row or column
    (x_ij x_lm = q x_lm x_ij), north-west ([x_ij, x_lm] = (q - q^-1) x_im x_lj)
    or commuting.
    """
    from skewtor.scalars import FieldElement
    from skewtor.torus import elem_mul, elem_scale

    state = outcome.state
    Q = state.Q
    q = FieldElement.parameter(state.ctx, "q")
    expr = dict(zip(state.orig_names, state.orig_expr))
    names = list(state.orig_names)
    problems = []
    for a, na in enumerate(names):
        for nb in names[a + 1:]:
            (i, j), (l, m) = (int(na[1]), int(na[2])), (int(nb[1]), int(nb[2]))
            ab = elem_mul(Q, expr[na], expr[nb])
            ba = elem_mul(Q, expr[nb], expr[na])
            if i == l or j == m:
                ok = ab == elem_scale(q, ba)
            elif i < l and j < m:
                mixed = elem_mul(Q, expr[f"x{i}{m}"], expr[f"x{l}{j}"])
                ok = ab - ba == elem_scale(q - q.inv(), mixed)
            else:
                ok = ab == ba
            if not ok:
                problems.append(f"relation between {na} and {nb} fails on orig_expr")
    return problems


def qmat_inputs(seed: int, n: int | None = None) -> list[Input]:
    # deterministic: the seed is not used; only the registered size has a
    # recorded report, a slow-tier size is checked by its relations alone
    n = QMAT_N if n is None else n
    expected = None
    if n == QMAT_N:
        expected = sha256((REFERENCES / f"qmat{n}_report.json").read_text(encoding="utf-8"))
    return [Input(f"qmat{n}", families.qmat(n), EXIT_OK, expected, check_qmat_relations)]


# -- affine ----------------------------------------------------------------------


def affine_report(inst: families.Affine) -> str:
    """The exact report of a quantum affine space, built from the input."""
    names, m = inst.names, inst.matrix
    n = len(names)
    trace = []
    for k, name in enumerate(names):
        stage = {
            "stage": k + 1,
            "name": name,
            "canonical_name": name,
            "lambda": [m[k][i].render() for i in range(k)],
        }
        if k:
            stage["new_row"] = stage["lambda"]
        trace.append(stage)
    return report_text(
        {
            "outcome": "torus_embedding",
            "parameters": list(families.PARAMS),
            "generators": list(names),
            "inverted": [],
            "matrix": [[m[i][j].render() for j in range(n)] for i in range(n)],
            "provenance": [],
            "trace": trace,
        }
    )


def _check_affine(inst: families.Affine) -> Callable[[object, dict], list[str]]:
    def check(outcome, report: dict) -> list[str]:
        problems = []
        state = outcome.state
        n = len(inst.names)
        if state.n != n or any(
            state.Q.entry(i, j) != _unit(state.ctx, inst.matrix[i][j])
            for i in range(n)
            for j in range(n)
        ):
            problems.append("final commutation matrix differs from the generated one")
        if state.inverted:
            problems.append(f"generators were inverted: {sorted(state.inverted)}")
        return problems

    return check


def _unit(ctx, u: families.Unit):
    from skewtor.scalars import UnitMonomial

    return UnitMonomial(ctx, u.coeff, u.exps)


def affine_inputs(seed: int) -> list[Input]:
    inst = families.affine(seed, AFFINE_N)
    return [
        Input(
            f"affine{AFFINE_N}",
            inst.presentation,
            EXIT_OK,
            sha256(affine_report(inst)),
            _check_affine(inst),
        )
    ]


# -- weyl -------------------------------------------------------------------------


def _check_weyl(inst: families.Weyl) -> Callable[[object, dict], list[str]]:
    def check(outcome, report: dict) -> list[str]:
        problems = []
        if report.get("certified") is not True:
            problems.append("witness is not certified")
        if report.get("weight") != list(inst.weight):
            problems.append(f"weight {report.get('weight')} is not the drawn {list(inst.weight)}")
        if report.get("p") != inst.p_name:
            problems.append(f"p = {report.get('p')!r}, expected {inst.p_name!r}")
        return problems

    return check


def weyl_inputs(seed: int) -> list[Input]:
    recorded = json.loads((REFERENCES / "weyl_sha256.json").read_text(encoding="utf-8"))
    digests = recorded["sha256"].get(str(seed), []) if recorded["shape"] == WEYL_SHAPE else []
    out = []
    for i in range(WEYL_INSTANCES):
        inst = families.weyl(seed, i, **WEYL_SHAPE)
        out.append(
            Input(
                f"weyl{i}",
                inst.presentation,
                EXIT_WEYL,
                digests[i] if i < len(digests) else None,
                _check_weyl(inst),
            )
        )
    return out


def _no_check(outcome, report: dict) -> list[str]:
    return []


def weyl_probes() -> list[Input]:
    # ROADMAP item 4: a valid input with two outer components on one
    # generator; the correct outcome is a certified witness (exit 10)
    return [Input("item4_repro", families.item4_reproducer(), EXIT_WEYL, None, _no_check)]


# the registered workloads, as listed in BENCHMARK.json
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "qmat4",
            "O_q(M_4), the paper's family one size up: scalar fractions, Leibniz "
            "extension and the Ore-product certificate dominate",
            qmat_inputs,
        ),
        Workload(
            "affine",
            "50-generator quantum affine space, every delta zero: O(n^2) trivial "
            "validation, unit conversions, parse and render; no ore, no classification",
            affine_inputs,
        ),
        Workload(
            "weyl",
            "affine base plus z with ad_a and one outer component: long delta "
            "expressions, multivariate fractions, the only path to weyl_witness",
            weyl_inputs,
            weyl_probes,
        ),
    )
}

# run by hand only: one pass of O_q(M_5) takes minutes
SLOW_WORKLOADS = {
    "qmat5": Workload(
        "qmat5",
        "O_q(M_5), the slow tier of the qmat family; checked by its relations",
        lambda seed: qmat_inputs(seed, 5),
    )
}
