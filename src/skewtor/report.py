"""Structured reports for the staged run: JSON-ready dicts and a text view."""

from __future__ import annotations

import json
from typing import Any

from .orechain import (
    AlgebraState,
    Derived,
    StageReport,
    TorusEmbedding,
    WeylWitness,
)
from .render import render_element, render_exponents, render_unit
from .skewder import ComponentReport


def _generator_label(state: AlgebraState, i: int) -> str:
    name = state.names[i]
    return f"{name}^±1" if i in state.inverted else name


def provenance_equations(state: AlgebraState) -> list[str]:
    """One equation ``w = y*x - t`` per derived generator; t is never zero."""
    out = []
    for i, prov in enumerate(state.provenance):
        if isinstance(prov, Derived):
            factors = [state.names[j] for j in prov.J] + [state.orig_names[prov.stage]]
            t_str = render_element(prov.t, state.names)
            # a leading minus after " - " would not parse back
            if len(prov.t.terms) > 1 or t_str.startswith("-"):
                t_str = f"({t_str})"
            out.append(f"{state.names[i]} = {'*'.join(factors)} - {t_str}")
    return out


def component_dict(c: ComponentReport, names: tuple[str, ...]) -> dict[str, Any]:
    """The JSON form of one component's verdict, with generator names."""
    d: dict[str, Any] = {"weight": list(c.weight), "kind": c.kind}
    if c.j is not None:
        d["localized_at"] = names[c.j]
    if c.inducer is not None:
        d["inducer"] = render_element(c.inducer, names)
    return d


def describe_component(comp: dict[str, Any]) -> str:
    """The verdict of a component dict, as the text views print it."""
    if comp["kind"] == "inner":
        return f"inner, induced by {comp['inducer']}"
    if comp["kind"] == "locally_inner":
        return f"locally inner at {comp['localized_at']}, induced by {comp['inducer']}"
    return "conjugate to a derivation"


def _stage_dict(rep: StageReport, names: tuple[str, ...]) -> dict[str, Any]:
    d: dict[str, Any] = {
        "stage": rep.stage,
        "name": rep.name,
        "canonical_name": rep.canonical_name,
        "lambda": [render_unit(u) for u in rep.lambdas],
    }
    if rep.components:
        d["components"] = [component_dict(c, names) for c in rep.components]
    if rep.J:
        d["localized"] = [names[j] for j in rep.J]
    if rep.t is not None:
        d["t"] = render_element(rep.t, names)
    if rep.new_row:
        d["new_row"] = [render_unit(u) for u in rep.new_row]
    if rep.normal_table:
        d["normal_table"] = [
            {"generator": g, "scalar": render_unit(s) if s is not None else None}
            for g, s in rep.normal_table
        ]
    return d


def build_report(outcome, ctx, trace_wanted: bool = True) -> dict[str, Any]:
    if isinstance(outcome, TorusEmbedding):
        state = outcome.state
        rep: dict[str, Any] = {
            "outcome": "torus_embedding",
            "parameters": list(ctx.names),
            "generators": [_generator_label(state, i) for i in range(state.n)],
            "inverted": sorted(state.names[i] for i in state.inverted),
            "matrix": [
                [render_unit(state.Q.entry(i, j)) for j in range(state.n)]
                for i in range(state.n)
            ],
            "provenance": provenance_equations(state),
        }
        if trace_wanted:
            rep["trace"] = [_stage_dict(r, state.names) for r in outcome.trace]
        return rep
    if isinstance(outcome, WeylWitness):
        u_str = _ore_str(outcome.u, outcome.names, outcome.var_name)
        p_str = _ore_str(outcome.p, outcome.names, outcome.var_name)
        rep = {
            "outcome": "weyl_witness",
            "parameters": list(ctx.names),
            "stage": outcome.stage,
            "weight": list(outcome.weight),
            "u": u_str,
            "p": p_str,
            "certificate": f"({u_str})*({p_str}) - ({p_str})*({u_str}) = 1",
            "certified": True,  # weyl_witness raises unless u*p - p*u = 1 checks
        }
        if outcome.unprocessed:
            rep["unprocessed_stages"] = list(outcome.unprocessed)
        if trace_wanted and outcome.trace:
            rep["trace"] = [_stage_dict(r, outcome.names) for r in outcome.trace]
        return rep
    raise TypeError(f"unknown outcome {outcome!r}")


def _ore_str(el, names: tuple[str, ...], var: str) -> str:
    parts = []
    for k, coeff in sorted(el.coeffs, reverse=True):
        body = render_element(coeff, names)
        if len(coeff.terms) > 1:
            body = f"({body})"
        if k == 0:
            parts.append(body)
        else:
            z = var if k == 1 else f"{var}^{k}"
            parts.append(z if body == "1" else f"{body}*{z}")
    # a later part with a leading minus would not parse back after " + "
    parts[1:] = [f"({p})" if p.startswith("-") else p for p in parts[1:]]
    return " + ".join(parts) if parts else "0"


def to_json(report: dict[str, Any]) -> str:
    return json.dumps(report, indent=2, ensure_ascii=False) + "\n"


def to_text(report: dict[str, Any]) -> str:
    lines: list[str] = []
    kind = report.get("outcome")
    for stage in report.get("trace", []):
        lines.append(f"Stage {stage['stage']} (adjoining {stage['name']}):")
        if stage["lambda"]:
            lines.append("  scaling on canonical generators: (" + ", ".join(stage["lambda"]) + ")")
        for comp in stage.get("components", []):
            w = render_exponents(tuple(comp["weight"]))
            lines.append(f"  component of weight {w}: {describe_component(comp)}")
        if stage.get("t"):
            lines.append(f"  t = {stage['t']}")
        if stage.get("localized"):
            lines.append("  localized at: " + ", ".join(stage["localized"]))
        if stage.get("new_row"):
            lines.append("  appended row: (" + ", ".join(stage["new_row"]) + ")")
        lines.append(f"  canonical generator: {stage['canonical_name']}")
    if kind == "torus_embedding":
        lines.append("outcome: torus embedding")
        lines.append("generators: " + ", ".join(report["generators"]))
        lines.append("inverted: {" + ", ".join(report["inverted"]) + "}")
        lines.append("matrix:")
        for row in report["matrix"]:
            lines.append("  [" + ", ".join(row) + "]")
        if report["provenance"]:
            lines.append("new generators:")
            for eq in report["provenance"]:
                lines.append(f"  {eq}")
    elif kind == "weyl_witness":
        lines.append(f"outcome: Weyl algebra witness at stage {report['stage']}")
        lines.append(f"weight: {render_exponents(tuple(report['weight']))}")
        lines.append(f"u = {report['u']}")
        lines.append(f"p = {report['p']}")
        lines.append(f"certified: {report['certificate']}")
        if report.get("unprocessed_stages"):
            lines.append("unprocessed stages: " + ", ".join(report["unprocessed_stages"]))
    return "\n".join(lines) + "\n"
