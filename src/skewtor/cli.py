"""Command line interface.

Subcommands::

    skewtor run FILE [--format json|text] [--trace]    exit 0 embedding, 10 witness
    skewtor classify FILE                              classify a derivation block
    skewtor eval FILE --expr E [--apply sigma|delta]   evaluate in the block's space
    skewtor check FILE                                 validate only

Exit codes: 0 success / torus embedding, 10 Weyl witness, 1 input or parse
error, 2 internal inconsistency or any other unexpected failure.
"""

from __future__ import annotations

import argparse
import sys

from .errors import InputError, InternalError, SkewtorError
from .orechain import TorusEmbedding, WeylWitness, run_all
from .presentation import StandaloneBlock, load_presentation, parse_element
from .render import render_element, render_exponents
from .report import build_report, to_json, to_text
from .skewder import (
    Inner,
    LocallyInner,
    SkewDerivation,
    apply_auto,
    classify_component,
    decompose_homogeneous,
    extend_derivation,
    validate_derivation,
)
from .torus import max_support_from_environment

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INTERNAL = 2
EXIT_WEYL = 10


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewtor",
        description="Exact arithmetic in quantum tori and the deleting-derivations "
        "algorithm on iterated Ore extensions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the staged algorithm on a presentation")
    run.add_argument("file")
    run.add_argument("--format", choices=("json", "text"), default="text")
    run.add_argument("--trace", action="store_true", help="include per-stage detail")

    classify = sub.add_parser("classify", help="classify a standalone derivation block")
    classify.add_argument("file")
    classify.add_argument("--format", choices=("json", "text"), default="text")

    ev = sub.add_parser("eval", help="evaluate an expression in the block's space")
    ev.add_argument("file")
    ev.add_argument("--expr", required=True)
    ev.add_argument("--apply", choices=("sigma", "delta"), default=None)

    check = sub.add_parser("check", help="validate a presentation file")
    check.add_argument("file")
    return parser


def _validated_derivation(block: StandaloneBlock) -> SkewDerivation:
    der = block.derivation()
    violation = validate_derivation(der)
    if violation is not None:
        raise InputError(
            "derivation images violate the relation between "
            f"{block.names[violation.i]!r} and {block.names[violation.j]!r}"
        )
    return der


def _cmd_run(args) -> int:
    pres = load_presentation(args.file)
    if pres.stages is None:
        raise InputError("this file has no stages; use classify or eval")
    outcome = run_all(pres.ctx, pres.stages)
    report = build_report(outcome, pres.ctx, trace_wanted=args.trace or args.format == "text")
    out = to_json(report) if args.format == "json" else to_text(report)
    sys.stdout.write(out)
    return EXIT_OK if isinstance(outcome, TorusEmbedding) else EXIT_WEYL


def _cmd_classify(args) -> int:
    pres = load_presentation(args.file)
    if pres.block is None or pres.block.images is None:
        raise InputError("this file has no standalone derivation block")
    block = pres.block
    entries = []
    for comp in decompose_homogeneous(_validated_derivation(block)):
        cls = classify_component(comp, block.sigma, block.space)
        entry = {"weight": list(comp.weight)}
        if isinstance(cls, Inner):
            entry["kind"] = "inner"
            entry["inducer"] = render_element(cls.inducer, block.names)
        elif isinstance(cls, LocallyInner):
            entry["kind"] = "locally_inner"
            entry["localized_at"] = block.names[cls.j]
            entry["inducer"] = render_element(cls.inducer, block.names)
        else:
            entry["kind"] = "outer_conjugate"
        entries.append(entry)
    report = {"outcome": "classification", "components": entries}
    if args.format == "json":
        sys.stdout.write(to_json(report))
    else:
        if not entries:
            sys.stdout.write("zero derivation\n")
        for e in entries:
            w = render_exponents(tuple(e["weight"]))
            if e["kind"] == "inner":
                sys.stdout.write(f"weight {w}: inner, induced by {e['inducer']}\n")
            elif e["kind"] == "locally_inner":
                sys.stdout.write(
                    f"weight {w}: locally inner at {e['localized_at']}, "
                    f"induced by {e['inducer']}\n"
                )
            else:
                sys.stdout.write(f"weight {w}: conjugate to a derivation\n")
    return EXIT_OK


def _cmd_eval(args) -> int:
    pres = load_presentation(args.file)
    if pres.block is None:
        raise InputError("this file has no standalone block; eval needs one")
    block = pres.block
    value = parse_element(args.expr, pres.ctx, block.space.Q, block.names)
    if args.apply == "sigma":
        if block.sigma is None:
            raise InputError("the file declares no lambda entry")
        value = apply_auto(block.sigma, value)
    elif args.apply == "delta":
        value = extend_derivation(_validated_derivation(block), value)
    sys.stdout.write(render_element(value, block.names) + "\n")
    return EXIT_OK


def _cmd_check(args) -> int:
    pres = load_presentation(args.file)
    if pres.stages is not None:
        outcome = run_all(pres.ctx, pres.stages)
        if isinstance(outcome, WeylWitness) and outcome.unprocessed:
            sys.stdout.write(
                "ok (terminal witness at stage "
                f"{outcome.stage}; later stages not checked: "
                + ", ".join(outcome.unprocessed)
                + ")\n"
            )
            return EXIT_OK
    if pres.block is not None and pres.block.images is not None:
        _validated_derivation(pres.block)
    sys.stdout.write("ok\n")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "classify": _cmd_classify,
        "eval": _cmd_eval,
        "check": _cmd_check,
    }
    try:
        with max_support_from_environment():
            return handlers[args.command](args)
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except InternalError as exc:
        sys.stderr.write(f"internal inconsistency: {exc}\n")
        return EXIT_INTERNAL
    except SkewtorError as exc:  # pragma: no cover - catch-all
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except Exception as exc:  # a bug, not bad input
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
