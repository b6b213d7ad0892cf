"""Record the reference reports the benchmark compares against.

Run from the root of a source checkout, at the commit whose output is the
reference::

    python3 bench/record_references.py

It writes ``bench/references/qmat4_report.json`` (the full report) and
``bench/references/weyl_sha256.json`` (the sha256 of each ``weyl`` report
for seeds 0 to ``workloads.WEYL_RECORDED_SEEDS - 1``).  ``affine`` needs no
recording: its report is built from the input by ``workloads.affine_report``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import families  # noqa: E402
import workloads  # noqa: E402
from skewtor.presentation import parse_presentation  # noqa: E402
from skewtor.orechain import run_all  # noqa: E402
from skewtor.report import build_report, to_json  # noqa: E402


def report_of(doc: dict) -> str:
    pres = parse_presentation(json.dumps(doc))
    return to_json(build_report(run_all(pres.ctx, pres.stages), pres.ctx, trace_wanted=True))


def main() -> int:
    workloads.REFERENCES.mkdir(exist_ok=True)
    qmat = report_of(families.qmat(workloads.QMAT_N))
    (workloads.REFERENCES / f"qmat{workloads.QMAT_N}_report.json").write_text(qmat, encoding="utf-8")
    digests = {}
    for seed in range(workloads.WEYL_RECORDED_SEEDS):
        digests[str(seed)] = [
            workloads.sha256(report_of(families.weyl(seed, i, **workloads.WEYL_SHAPE).presentation))
            for i in range(workloads.WEYL_INSTANCES)
        ]
        print(f"weyl seed {seed} recorded", flush=True)
    (workloads.REFERENCES / "weyl_sha256.json").write_text(
        json.dumps({"shape": workloads.WEYL_SHAPE, "sha256": digests}, indent=1) + "\n",
        encoding="utf-8",
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
