"""Presentation files: the on-disk JSON data model and its validation.

A file declares the parameters and then either a ``stages`` list (for the
staged algorithm) or a standalone block describing a single selectively
localized space with a toric map and generator images (for ``classify`` and
``eval``).

Stage k must supply exactly k-1 ``sigma`` entries (unit-monomial scalars,
the action on each earlier original generator) and at most k-1 ``delta``
entries (element expressions in the original generator names; missing or
null entries default to zero).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .errors import ArityMismatch, InputError, UnknownIdentifier
from .exprs import Expr, evaluate, names_in, parse_ast
from .scalars import FieldElement, ParameterContext, UnitMonomial
from .skewder import SkewDerivation, ToricAutomorphism
from .torus import (
    CommutationMatrix,
    SelectiveSpace,
    TorusElement,
    elem_mul,
    elem_scale,
    monomial_inverse,
)
from .orechain import StageSpec


@dataclass(frozen=True)
class StandaloneBlock:
    names: tuple[str, ...]
    space: SelectiveSpace
    sigma: ToricAutomorphism | None
    images: tuple[TorusElement, ...] | None

    def derivation(self) -> SkewDerivation:
        if self.sigma is None or self.images is None:
            raise InputError("the file carries no derivation block")
        d = SkewDerivation(self.space.Q, self.sigma, self.images)
        return d


@dataclass(frozen=True)
class PresentationFile:
    ctx: ParameterContext
    stages: tuple[StageSpec, ...] | None
    block: StandaloneBlock | None


def parse_scalar(text: str, ctx: ParameterContext) -> FieldElement:
    tree = parse_ast(text)
    unknown = names_in(tree) - set(ctx.names)
    if unknown:
        raise UnknownIdentifier(f"unknown parameter(s) {sorted(unknown)} in {text!r}")
    return evaluate(
        tree,
        lambda c: FieldElement.rational(ctx, c),
        lambda name, k: FieldElement.parameter(ctx, name, k),
        lambda a, b: a * b,
        lambda a, b: a / b,
    )


def parse_unit(text: str, ctx: ParameterContext) -> UnitMonomial:
    fe = parse_scalar(text, ctx)
    u = fe.as_unit()
    if u is None:
        raise InputError(f"{text!r} is not an invertible monomial scalar")
    return u


def parse_element(
    text: str,
    ctx: ParameterContext,
    Q: CommutationMatrix,
    names: tuple[str, ...],
) -> TorusElement:
    """Parse a noncommutative expression and normalize it to PBW form."""
    tree = parse_ast(text)
    index = {name: i for i, name in enumerate(names)}
    unknown = names_in(tree) - set(names) - set(ctx.names)
    if unknown:
        raise UnknownIdentifier(f"unknown identifier(s) {sorted(unknown)} in {text!r}")
    n = Q.n

    def constant(c: Fraction) -> TorusElement:
        return TorusElement.scalar(ctx, n, FieldElement.rational(ctx, c))

    def atom(name: str, k: int) -> TorusElement:
        if name in index:
            return TorusElement.generator(ctx, n, index[name], k)
        return TorusElement.scalar(ctx, n, FieldElement.parameter(ctx, name, k))

    def divide(a: TorusElement, b: TorusElement) -> TorusElement:
        st = b.single_term()
        if st is None:
            raise InputError("division by a sum is not defined here")
        e, c = st
        if any(e):
            return elem_mul(Q, a, elem_scale(c.inv(), monomial_inverse(Q, e)))
        return elem_scale(c.inv(), a)

    return evaluate(tree, constant, atom, lambda a, b: elem_mul(Q, a, b), divide)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise InputError(msg)


def _parse_stage(raw: dict, k: int, ctx: ParameterContext, earlier: list[str]) -> StageSpec:
    where = f"stages[{k - 1}]"
    _require(isinstance(raw, dict), f"{where}: expected an object")
    name = raw.get("name")
    _require(isinstance(name, str) and name != "", f"{where}: missing generator name")
    rename = raw.get("rename")
    if rename is not None:
        _require(isinstance(rename, str) and rename != "", f"{where}: bad rename")
    sigma_raw = raw.get("sigma", [])
    _require(isinstance(sigma_raw, list), f"{where}: sigma must be a list")
    if len(sigma_raw) != k - 1:
        raise ArityMismatch(
            f"{where}: stage {k} needs exactly {k - 1} sigma entries, got {len(sigma_raw)}"
        )
    sigma = tuple(parse_unit(str(s), ctx) for s in sigma_raw)
    delta_raw = raw.get("delta", [])
    _require(isinstance(delta_raw, list), f"{where}: delta must be a list")
    if len(delta_raw) > k - 1:
        raise ArityMismatch(
            f"{where}: stage {k} allows at most {k - 1} delta entries, got {len(delta_raw)}"
        )
    deltas: list[Expr | None] = []
    for idx, entry in enumerate(delta_raw):
        if entry is None or entry == "0":
            deltas.append(None)
            continue
        _require(isinstance(entry, str), f"{where}: delta[{idx}] must be a string")
        tree = parse_ast(entry)
        unknown = names_in(tree) - set(earlier) - set(ctx.names)
        if unknown:
            raise UnknownIdentifier(
                f"{where}: delta[{idx}] references unknown name(s) {sorted(unknown)}"
            )
        deltas.append(tree)
    while len(deltas) < k - 1:
        deltas.append(None)
    return StageSpec(name, sigma, tuple(deltas), rename)


def _parse_block(raw: dict, ctx: ParameterContext) -> StandaloneBlock:
    names = raw.get("generators")
    _require(
        isinstance(names, list) and all(isinstance(s, str) for s in names),
        "generators must be a list of names",
    )
    names = tuple(names)
    _require(len(set(names)) == len(names), "generator names must be distinct")
    _require(not set(names) & set(ctx.names), "generator names collide with parameters")
    matrix = raw.get("matrix")
    _require(isinstance(matrix, list) and len(matrix) == len(names), "matrix size mismatch")
    rows = []
    for row in matrix:
        _require(isinstance(row, list) and len(row) == len(names), "matrix row size mismatch")
        rows.append([parse_unit(str(v), ctx) for v in row])
    Q = CommutationMatrix(ctx, rows)
    inverted_raw = raw.get("inverted", [])
    _require(isinstance(inverted_raw, list), "inverted must be a list")
    inverted = set()
    for item in inverted_raw:
        if isinstance(item, str):
            if item not in names:
                raise UnknownIdentifier(f"inverted refers to unknown generator {item!r}")
            inverted.add(names.index(item))
        else:
            # JSON true arrives as a bool, which isinstance would take for the int 1
            _require(type(item) is int and 1 <= item <= len(names), "bad inverted index")
            inverted.add(item - 1)
    space = SelectiveSpace(Q, frozenset(inverted))

    sigma = None
    if "lambda" in raw:
        lam = raw["lambda"]
        _require(isinstance(lam, list) and len(lam) == len(names), "lambda size mismatch")
        sigma = ToricAutomorphism(ctx, tuple(parse_unit(str(v), ctx) for v in lam))

    images = None
    if "derivation" in raw:
        der = raw["derivation"]
        _require(isinstance(der, dict), "derivation must map generator names to expressions")
        unknown = set(der) - set(names)
        if unknown:
            raise UnknownIdentifier(f"derivation images for unknown generator(s) {sorted(unknown)}")
        images = tuple(
            parse_element(str(der.get(name, "0")), ctx, Q, names) for name in names
        )
        _require(sigma is not None, "a derivation block needs a lambda entry")
    return StandaloneBlock(names, space, sigma, images)


def parse_presentation(text: str) -> PresentationFile:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"not valid JSON: {exc}") from None
    _require(isinstance(raw, dict), "top level must be an object")

    params = raw.get("parameters", [])
    _require(
        isinstance(params, list) and all(isinstance(p, str) for p in params),
        "parameters must be a list of names",
    )
    _require(len(set(params)) == len(params), "parameter names must be distinct")
    ctx = ParameterContext(params)

    stages = None
    if "stages" in raw:
        raw_stages = raw["stages"]
        _require(isinstance(raw_stages, list), "stages must be a list")
        if not raw_stages:
            raise InputError("empty stages list")
        specs = []
        earlier: list[str] = []
        seen: set[str] = set(ctx.names)
        for k, entry in enumerate(raw_stages, start=1):
            spec = _parse_stage(entry, k, ctx, earlier)
            for label in filter(None, (spec.name, spec.rename)):
                if label in seen:
                    raise InputError(f"duplicate name {label!r}")
                seen.add(label)
            earlier.append(spec.name)
            specs.append(spec)
        stages = tuple(specs)

    block = None
    if "matrix" in raw or "generators" in raw:
        block = _parse_block(raw, ctx)

    if stages is None and block is None:
        raise InputError("the file declares neither stages nor a standalone block")
    return PresentationFile(ctx, stages, block)


def load_presentation(path: str) -> PresentationFile:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_presentation(fh.read())
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def render_presentation(pres: PresentationFile) -> str:
    """Serialize back to the canonical JSON form; parse o render is a fixed
    point on files produced by this function."""
    from .exprs import render_ast
    from .render import render_element, render_unit

    doc: dict = {"parameters": list(pres.ctx.names)}
    if pres.stages is not None:
        stages = []
        for spec in pres.stages:
            entry: dict = {"name": spec.name}
            if spec.rename:
                entry["rename"] = spec.rename
            if spec.sigma_eigs:
                entry["sigma"] = [render_unit(u) for u in spec.sigma_eigs]
            if any(t is not None for t in spec.delta_exprs):
                entry["delta"] = [
                    "0" if t is None else render_ast(t) for t in spec.delta_exprs
                ]
            stages.append(entry)
        doc["stages"] = stages
    if pres.block is not None:
        block = pres.block
        doc["generators"] = list(block.names)
        doc["matrix"] = [
            [render_unit(block.space.Q.entry(i, j)) for j in range(len(block.names))]
            for i in range(len(block.names))
        ]
        doc["inverted"] = [block.names[i] for i in sorted(block.space.inverted)]
        if block.sigma is not None:
            doc["lambda"] = [render_unit(u) for u in block.sigma.lambdas]
        if block.images is not None:
            doc["derivation"] = {
                name: render_element(im, block.names)
                for name, im in zip(block.names, block.images)
                if not im.is_zero()
            }
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"
