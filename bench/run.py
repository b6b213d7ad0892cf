"""skewtor benchmark: end-to-end and per-layer metrics on generated workloads.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload qmat4|affine|weyl --seed N --seconds S --trace 0|1

``--workload qmat5`` is a slow tier run by hand (one pass takes minutes); it
is not registered in ``BENCHMARK.json``.

The benchmark generates the workload's presentations from ``--seed``, writes
them as JSON files and sends each through the user path of
``skewtor run --format json --trace``: ``load_presentation`` -> ``run_all``
-> ``build_report`` -> ``to_json``.  One caller, one thread, inputs solved
one after another: a closed loop.  Every report is checked (see
``workloads.py``); an input whose exit class, report bytes or independent
check differs from the reference counts as failed.

``--trace 0`` times whole passes over the inputs for about ``--seconds``
seconds, with no tracing, and reports:

* ``verdict_s``: median wall seconds of one pass (parse, solve, report, JSON);
* ``setup_s``: median seconds to import ``skewtor`` and load the workload's
  presentations, each measured in a fresh interpreter;
* ``peak_rss_mb``: peak resident memory of this process.

``--trace 1`` alternates untraced passes with traced ones, in which
``tracer.py`` wraps the engine's public functions from outside, and reports
the per-layer metrics listed in ``LAYER_METRICS``.  The engine is
single-threaded and does no I/O while timed, so no layer has a waiting time
and none is reported.  The spans of the last traced pass are written to
``.bench_work/trace-<workload>-<seed>.json``.

Known-defect reproducers (``weyl`` runs the one of ROADMAP item 4) run once
per run outside the timed passes; they are reported on their own summary
line and as ``known_defects``, not in ``failed``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above it
are a human-readable summary, including ``failed_frac`` and, for
``verdict_s``, the sample count and the highest percentile with ten samples
beyond it (which needs at least 11 passes), and the inputs that have no
recorded report to compare with.  Without ``src/skewtor`` next to this directory the benchmark
exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_PASSES = 3
SETUP_REPEATS = 11

# import skewtor and load the given presentations; print the seconds taken
# and the module path, so the parent can confirm which source was measured
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import skewtor
from skewtor.presentation import load_presentation
for path in sys.argv[2:]:
    load_presentation(path)
elapsed = time.perf_counter() - t0
print(elapsed, skewtor.__file__)
"""

# per-layer metric -> (unit, definition); "incl" is the inclusive time of the
# outermost calls, "self" excludes the time of wrapped calls made inside
LAYER_METRICS = {
    "presentation.parse_s": ("s", "incl load_presentation (file, JSON, exprs parsing)"),
    "exprs.evaluate_s": ("s", "incl exprs.evaluate called from orechain (delta expressions)"),
    "orechain.translate_s": ("s", "incl translate_derivation"),
    "orechain.classify_s": ("s", "incl extend_by_ore minus its verify_normal"),
    "orechain.certify_s": ("s", "incl verify_normal"),
    "orechain.weyl_s": ("s", "incl weyl_witness"),
    "orechain.phase_share": ("share", "the four orechain phases over the traced pass"),
    "orechain.stages": ("count", "stages processed"),
    "orechain.deleted": ("count", "stages whose derivation was deleted"),
    "orechain.max_support": ("count", "largest support of any t or orig_expr"),
    "skewder.validate_s": ("s", "incl validate_derivation"),
    "skewder.validate_pairs": ("count", "lhs != rhs comparisons made by validate_derivation"),
    "skewder.validate_live_share": ("share", "checked pairs whose two sides are not both zero"),
    "skewder.extend_s": ("s", "incl extend_derivation"),
    "skewder.extend_calls": ("count", "extend_derivation calls"),
    "skewder.classify_s": ("s", "incl classify_component"),
    "skewder.components": ("count", "classify_component calls"),
    "ore.mul_s": ("s", "incl OreElement.__mul__"),
    "ore.mul_calls": ("count", "OreElement.__mul__ calls"),
    "torus.elem_mul_s": ("s", "self elem_mul"),
    "torus.elem_mul_calls": ("count", "elem_mul calls"),
    "torus.term_pairs": ("count", "sum of |u|*|v| over elem_mul calls"),
    "torus.monomial_mul_calls": ("count", "monomial_mul calls"),
    "torus.append_row_s": ("s", "incl CommutationMatrix.append_row"),
    "scalars.field_s": ("s", "self FieldElement arithmetic, equality, __init__ and from_unit"),
    "scalars.field_mul_calls": ("count", "FieldElement.__mul__ calls"),
    "scalars.field_new_calls": ("count", "FieldElement constructions"),
    "scalars.unit_den_share": ("share", "constructions whose denominator is the constant 1"),
    "report.build_s": ("s", "incl build_report plus to_json"),
    "report.render_s": ("s", "incl render functions called from report"),
    "report.bytes": ("bytes", "bytes of the JSON reports"),
    "layer_errors": ("count", "exceptions that escaped a wrapped call"),
    "trace_overhead": ("ratio", "median traced pass over median untraced pass"),
    "known_defects": ("count", "known-defect reproducers that still fail"),
}


def _fail(msg: str) -> int:
    sys.stderr.write(f"bench: {msg}\n")
    return 2


class Engine:
    """The user path through the engine, looked up at call time so that a
    tracer's wrappers are seen."""

    def __init__(self):
        import skewtor.errors
        import skewtor.orechain
        import skewtor.presentation
        import skewtor.report

        self.errors = skewtor.errors
        self.orechain = skewtor.orechain
        self.presentation = skewtor.presentation
        self.report = skewtor.report

    def solve(self, path: Path):
        """(exit class, report text or error, outcome) for one file."""
        try:
            pres = self.presentation.load_presentation(str(path))
            outcome = self.orechain.run_all(pres.ctx, pres.stages)
            text = self.report.to_json(
                self.report.build_report(outcome, pres.ctx, trace_wanted=True)
            )
        except self.errors.InputError as exc:
            return 1, f"input error: {exc}", None
        except self.errors.InternalError as exc:
            return 2, f"internal inconsistency: {exc}", None
        except Exception as exc:  # a crash is a failed input, not a dead benchmark
            return 2, f"raised {type(exc).__name__}: {exc}", None
        if isinstance(outcome, self.orechain.TorusEmbedding):
            return 0, text, outcome
        if isinstance(outcome, self.orechain.WeylWitness):
            return 10, text, outcome
        return 1, text, outcome


class Verdicts:
    """Every solved input against its reference.

    An attempt fails when its exit class differs from the expected one, its
    report differs from the recorded one or from the input's first report
    (which also compares traced with untraced reports), or when the input's
    independent check fails; that check runs once per input, and its failure
    fails every attempt of the input, as the reports are identical.
    """

    def __init__(self, inputs):
        self.inputs = inputs
        self.attempts = {inp.name: 0 for inp in inputs}
        self.bad = {inp.name: 0 for inp in inputs}
        self.check_failed: set[str] = set()
        self.problems: list[str] = []
        self.first: dict[str, str] = {}  # report text of each input's first attempt

    @property
    def attempted(self) -> int:
        return sum(self.attempts.values())

    @property
    def failed(self) -> int:
        return sum(
            self.attempts[name] if name in self.check_failed else self.bad[name]
            for name in self.attempts
        )

    def record(self, results) -> None:
        from workloads import sha256

        for inp, (code, text, _) in zip(self.inputs, results):
            self.attempts[inp.name] += 1
            why = None
            if code != inp.expected_exit:
                why = f"exit {code}, expected {inp.expected_exit}: {text[:200]}"
            elif inp.expected_sha256 is not None and sha256(text) != inp.expected_sha256:
                why = "report differs from the recorded reference"
            elif self.first.setdefault(inp.name, text) != text:
                why = "report differs from the first pass"
            if why is not None:
                self.bad[inp.name] += 1
                self.problems.append(f"{inp.name}: {why}")

    def check(self, results) -> None:
        """Independent checks, once per input, on one pass's outcomes."""
        for inp, (code, text, outcome) in zip(self.inputs, results):
            if outcome is None:
                continue
            found = inp.check(outcome, json.loads(text))
            if found:
                self.problems.extend(f"{inp.name}: {p}" for p in found)
                self.check_failed.add(inp.name)


def run_pass(engine: Engine, paths):
    gc.collect()
    t0 = time.perf_counter()
    results = [engine.solve(p) for p in paths]
    return time.perf_counter() - t0, results


def measure_setup(paths, repeats: int) -> list[float]:
    out = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), *map(str, paths)],
            capture_output=True,
            text=True,
            timeout=120,
            check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed: {proc.stderr.strip()[-500:]}")
        elapsed, module = proc.stdout.split(maxsplit=1)
        if not Path(module.strip()).resolve().is_relative_to(SRC):
            raise RuntimeError(f"set-up imported skewtor from {module.strip()}")
        out.append(float(elapsed))
    return out


def high_percentile(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return f"none (needs 11 samples, have {n})"
    value = sorted(samples)[n - 11]
    return f"p{100 * (n - 10) // n} {value:.4f} s"


def enough(samples: list[float], seconds: float, least: int = MIN_PASSES) -> bool:
    """Stop before a further pass would take the measured time past ``seconds``."""
    if len(samples) < least:
        return False
    return sum(samples) + statistics.median(samples) > seconds


def outcome_counts(results) -> dict[str, int]:
    """Exact counts of the algorithm's work, read from the outcomes."""
    stages = deleted = max_support = 0
    for _, _, outcome in results:
        if outcome is None:
            continue
        trace = outcome.trace
        stages += len(trace) + (0 if hasattr(outcome, "state") else 1)
        deleted += sum(1 for rep in trace if rep.components)
        sizes = [len(rep.t.terms) for rep in trace if rep.t is not None]
        if hasattr(outcome, "state"):
            sizes += [len(e.terms) for e in outcome.state.orig_expr]
        max_support = max([max_support, *sizes])
    return {
        "orechain.stages": stages,
        "orechain.deleted": deleted,
        "orechain.max_support": max_support,
    }


def layer_metrics(tr, verdict_s: float, results, report_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass, as defined in LAYER_METRICS."""
    inc, calls = tr.inclusive, tr.calls
    translate = inc("orechain.translate_derivation")
    certify = inc("orechain.verify_normal")
    classify = inc("orechain.extend_by_ore") - certify
    weyl = inc("orechain.weyl_witness")
    pairs = tr.counts["skewder.validate_pairs"]
    new_calls = calls("scalars.FieldElement.__init__")
    field_labels = {l for (l, _) in tr.stats if l.startswith("scalars.FieldElement.")}
    m = {
        "presentation.parse_s": inc("presentation.load_presentation"),
        "exprs.evaluate_s": inc("exprs.evaluate", "orechain"),
        "orechain.translate_s": translate,
        "orechain.classify_s": classify,
        "orechain.certify_s": certify,
        "orechain.weyl_s": weyl,
        "orechain.phase_share": (translate + classify + certify + weyl) / verdict_s,
        **outcome_counts(results),
        "skewder.validate_s": inc("skewder.validate_derivation"),
        "skewder.validate_pairs": pairs,
        "skewder.validate_live_share": tr.counts["skewder.validate_live_pairs"] / pairs if pairs else 0.0,
        "skewder.extend_s": inc("skewder.extend_derivation"),
        "skewder.extend_calls": calls("skewder.extend_derivation"),
        "skewder.classify_s": inc("skewder.classify_component"),
        "skewder.components": calls("skewder.classify_component"),
        "ore.mul_s": inc("ore.OreElement.__mul__"),
        "ore.mul_calls": calls("ore.OreElement.__mul__"),
        "torus.elem_mul_s": tr.self_time("torus.elem_mul"),
        "torus.elem_mul_calls": calls("torus.elem_mul"),
        "torus.term_pairs": tr.counts["torus.term_pairs"],
        "torus.monomial_mul_calls": calls("torus.monomial_mul"),
        "torus.append_row_s": inc("torus.CommutationMatrix.append_row"),
        "scalars.field_s": sum(tr.self_time(l) for l in field_labels),
        "scalars.field_mul_calls": calls("scalars.FieldElement.__mul__"),
        "scalars.field_new_calls": new_calls,
        "scalars.unit_den_share": tr.counts["scalars.unit_den"] / new_calls if new_calls else 0.0,
        "report.build_s": inc("report.build_report") + inc("report.to_json"),
        "report.render_s": sum(
            inc(f"render.{f}", "report") for f in ("render_element", "render_unit", "render_scalar")
        ),
        "report.bytes": report_bytes,
        "layer_errors": tr.errors,
    }
    return m


def timed_run(engine, workload, inputs, paths, seconds):
    verdicts = Verdicts(inputs)
    # set-up samples are spread between the passes, so that a slow spell of
    # the machine touches few of them
    setup: list[float] = []
    samples: list[float] = []
    first = None
    while not enough(samples, seconds):
        setup += measure_setup(paths, 2)
        dt, results = run_pass(engine, paths)
        samples.append(dt)
        verdicts.record(results)
        if first is None:
            first = results
        del results
    setup += measure_setup(paths, SETUP_REPEATS - len(setup))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    verdicts.check(first)
    metrics = {
        "verdict_s": (statistics.median(samples), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }
    summary = [
        f"verdict_s: median {statistics.median(samples):.4f} s over {len(samples)} passes "
        f"of {len(inputs)} input(s); highest percentile with ten samples beyond: "
        f"{high_percentile(samples)}",
        f"setup_s: median {statistics.median(setup):.4f} s over {len(setup)} fresh interpreters",
        f"peak_rss_mb: {rss_mb:.1f} MiB",
    ]
    return verdicts, metrics, summary


def traced_run(engine, workload, inputs, paths, seconds, seed):
    from tracer import Tracer

    verdicts = Verdicts(inputs)
    plain: list[float] = []
    traced: list[float] = []
    per_pass: list[dict] = []
    restored = True
    while not enough([a + b for a, b in zip(plain, traced)], seconds, least=1):
        dt, results = run_pass(engine, paths)
        plain.append(dt)
        verdicts.record(results)
        with Tracer() as tr:
            tdt, tresults = run_pass(engine, paths)
        restored &= tr.restored()
        traced.append(tdt)
        verdicts.record(tresults)
        report_bytes = sum(len(t.encode("utf-8")) for c, t, _ in tresults if c in (0, 10))
        per_pass.append(layer_metrics(tr, tdt, tresults, report_bytes))
        last = tr
        if len(plain) == 1:
            verdicts.check(tresults)
    WORK.mkdir(exist_ok=True)
    trace_file = WORK / f"trace-{workload.name}-{seed}.json"
    last.dump(trace_file)
    # times are medians over the traced passes; counts repeat exactly, so the
    # last pass gives them
    metrics = {
        name: (
            statistics.median(p[name] for p in per_pass)
            if LAYER_METRICS[name][0] in ("s", "share")
            else per_pass[-1][name],
            LAYER_METRICS[name][0],
        )
        for name in per_pass[0]
    }
    overhead = statistics.median(traced) / statistics.median(plain)
    metrics["trace_overhead"] = (overhead, "ratio")
    if not restored:
        # every traced report is suspect when the engine was left patched
        verdicts.problems.append("tracer left a wrapped binding behind")
        verdicts.check_failed.update(verdicts.attempts)
    summary = [
        f"traced passes: {len(traced)}, median {statistics.median(traced):.4f} s; "
        f"untraced median {statistics.median(plain):.4f} s; overhead x{overhead:.3f}",
        f"orechain phases cover {metrics['orechain.phase_share'][0]:.1%} of a traced pass",
        f"spans written to {trace_file.relative_to(ROOT)}",
    ]
    return verdicts, metrics, summary


def run_probes(engine, workload, run_dir) -> tuple[int, list[str]]:
    """Known-defect reproducers: run once, reported apart from the timed inputs."""
    defects, lines = 0, []
    for inp in workload.probes():
        path = run_dir / f"{inp.name}.json"
        path.write_text(json.dumps(inp.doc, indent=1), encoding="utf-8")
        code, text, _ = engine.solve(path)
        if code != inp.expected_exit:
            defects += 1
            lines.append(
                f"known defect {inp.name}: exit {code}, a correct engine gives "
                f"{inp.expected_exit} ({text.strip()[:120]})"
            )
        else:
            lines.append(f"known defect {inp.name}: now exits {code} as it should")
    return defects, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "skewtor" / "__init__.py").is_file():
        return _fail(f"no engine source at {SRC / 'skewtor'}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import skewtor
    from workloads import SLOW_WORKLOADS, WORKLOADS

    if not Path(skewtor.__file__).resolve().is_relative_to(SRC):
        return _fail(f"imported skewtor from {skewtor.__file__}, not from {SRC}")
    workload = {**WORKLOADS, **SLOW_WORKLOADS}.get(args.workload)
    if workload is None:
        return _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        return _fail("--seconds must be positive")

    engine = Engine()
    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    run_dir.mkdir()
    try:
        inputs = workload.inputs(args.seed)
        paths = []
        for inp in inputs:
            path = run_dir / f"{inp.name}.json"
            path.write_text(json.dumps(inp.doc, indent=1), encoding="utf-8")
            paths.append(path)
        if args.trace:
            verdicts, metrics, summary = traced_run(
                engine, workload, inputs, paths, args.seconds, args.seed
            )
        else:
            verdicts, metrics, summary = timed_run(engine, workload, inputs, paths, args.seconds)
        defects, probe_lines = run_probes(engine, workload, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if args.trace:
        metrics["known_defects"] = (defects, "count")

    failed_frac = verdicts.failed / verdicts.attempted
    unrecorded = [inp.name for inp in inputs if inp.expected_sha256 is None]
    if unrecorded:
        summary.append(
            f"no recorded report for {', '.join(unrecorded)}: checked by exit class, "
            "report stability and the independent check only"
        )
    else:
        summary.append("every input has a recorded report to compare byte for byte")
    print(f"workload {workload.name}, seed {args.seed}: {workload.why}")
    for line in summary + probe_lines:
        print(f"  {line}")
    print(f"  failed_frac: {verdicts.failed}/{verdicts.attempted} = {failed_frac:.4f} (share)")
    for problem in verdicts.problems[:20]:
        sys.stderr.write(f"bench: FAILED {problem}\n")
    print(
        json.dumps(
            {
                "correct": verdicts.failed == 0,
                "attempted": verdicts.attempted,
                "failed": verdicts.failed,
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
