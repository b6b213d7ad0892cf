"""Presentation files: the on-disk JSON data model and its validation.

A file declares the parameters and then either a ``stages`` list (for the
staged algorithm) or a standalone block describing a single selectively
localized space with a toric map and generator images (for ``classify`` and
``eval``).

Stage k must supply exactly k-1 ``sigma`` entries (unit-monomial scalars
given as strings or integers, the action on each earlier original generator)
and at most k-1 ``delta`` entries (element expressions in the original
generator names; missing or null entries default to zero).

A key the format does not define is an error, at the top level and in a
stage, so a misspelt key is not silently ignored.  Every declared name (a
parameter, a stage's ``name`` and ``rename``, a block generator) must be a
NAME of the expression grammar.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import (
    ArityMismatch,
    ExprSyntaxError,
    InputError,
    MembershipViolation,
    UnknownIdentifier,
)
from .exprs import Expr, evaluate, is_name, parse_with_names
from .record import Record
from .scalars import FieldElement, ParameterContext, UnitMonomial
from .skewder import SkewDerivation, ToricAutomorphism
from .torus import CommutationMatrix, SelectiveSpace, TorusElement, elem_div, elem_mul, membership

# the keys a file may use, at the top level and in each stage
_FILE_KEYS = frozenset(
    ("parameters", "stages", "generators", "matrix", "inverted", "lambda", "derivation")
)
_STAGE_KEYS = frozenset(("name", "sigma", "delta", "rename"))


class StageSpec(Record):
    """One stage of the presentation.

    ``sigma_eigs[k]`` is the eigenvalue of the stage map on the k-th original
    generator; ``delta_exprs[k]`` is the image of that generator, as an
    expression tree over the original generator names (zero when absent).
    """

    __slots__ = ("name", "sigma_eigs", "delta_exprs", "rename")

    def __init__(
        self,
        name: str,
        sigma_eigs: tuple[UnitMonomial, ...],
        delta_exprs: tuple[Expr | None, ...],
        rename: str | None = None,
    ):
        self.name = name
        self.sigma_eigs = sigma_eigs
        self.delta_exprs = delta_exprs
        self.rename = rename


class StandaloneBlock(Record):
    """One selectively localized space, with a toric map and derivation
    images when the file declares them (for ``classify`` and ``eval``)."""

    __slots__ = ("names", "space", "sigma", "images")

    def __init__(
        self,
        names: tuple[str, ...],
        space: SelectiveSpace,
        sigma: ToricAutomorphism | None,
        images: tuple[TorusElement, ...] | None,
    ):
        self.names = names
        self.space = space
        self.sigma = sigma
        self.images = images

    def derivation(self) -> SkewDerivation:
        if self.sigma is None or self.images is None:
            raise InputError("the file carries no derivation block")
        d = SkewDerivation(self.space.Q, self.sigma, self.images)
        return d


class PresentationFile(Record):
    """A parsed file: its parameters, stages and standalone block."""

    __slots__ = ("ctx", "stages", "block")

    def __init__(
        self,
        ctx: ParameterContext,
        stages: tuple[StageSpec, ...] | None,
        block: StandaloneBlock | None,
    ):
        self.ctx = ctx
        self.stages = stages
        self.block = block


def parse_scalar(text: str, ctx: ParameterContext) -> FieldElement:
    tree, used = parse_with_names(text)
    unknown = used - set(ctx.names)
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


def _entry_text(entry: object, where: str) -> str:
    """The text of a scalar or element entry: a string, or a JSON integer."""
    # JSON true arrives as a bool, which isinstance would take for the int 1
    if type(entry) is int:
        return str(entry)
    if not isinstance(entry, str):
        raise InputError(f"{where} must be a string")
    return entry


class _UnitReader:
    """The unit-monomial entries of one file, each distinct text parsed once.

    Entries with the same text share one ``UnitMonomial``, which is immutable.
    An entry is a string or a JSON integer; a bad entry raises at its first
    occurrence, with ``where`` naming it.
    """

    def __init__(self, ctx: ParameterContext):
        self.ctx = ctx
        self.units: dict[str, UnitMonomial] = {}

    def __call__(self, entry: object, where: str) -> UnitMonomial:
        entry = _entry_text(entry, where)
        unit = self.units.get(entry)
        if unit is None:
            try:
                unit = self.units[entry] = parse_unit(entry, self.ctx)
            except InputError as exc:
                exc.args = (f"{where}: {exc}",)
                raise
        return unit


def parse_element(
    text: str,
    ctx: ParameterContext,
    Q: CommutationMatrix,
    names: tuple[str, ...],
) -> TorusElement:
    """Parse a noncommutative expression and normalize it to PBW form."""
    tree, used = parse_with_names(text)
    index = {name: i for i, name in enumerate(names)}
    unknown = used - set(names) - set(ctx.names)
    if unknown:
        raise UnknownIdentifier(f"unknown identifier(s) {sorted(unknown)} in {text!r}")
    n = Q.n

    def constant(c: Fraction) -> TorusElement:
        return TorusElement.scalar(ctx, n, FieldElement.rational(ctx, c))

    def atom(name: str, k: int) -> TorusElement:
        if name in index:
            return TorusElement.generator(ctx, n, index[name], k)
        return TorusElement.scalar(ctx, n, FieldElement.parameter(ctx, name, k))

    return evaluate(
        tree, constant, atom, lambda a, b: elem_mul(Q, a, b), lambda a, b: elem_div(Q, a, b)
    )


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise InputError(msg)


def _require_known_keys(raw: dict, known: frozenset[str], prefix: str) -> None:
    for key in raw:
        if key not in known:
            raise InputError(f"{prefix}unknown key {key!r}")


def _require_name(name: str, where: str) -> None:
    """A declared name must be a NAME of the expression grammar, or no
    expression could refer to it."""
    if not is_name(name):
        raise InputError(f"{where}: {name!r} is not an identifier")


def _parse_stage(
    raw: dict, k: int, ctx: ParameterContext, read: _UnitReader, earlier: list[str]
) -> StageSpec:
    where = f"stages[{k - 1}]"
    _require(isinstance(raw, dict), f"{where}: expected an object")
    _require_known_keys(raw, _STAGE_KEYS, f"{where}: ")
    name = raw.get("name")
    _require(isinstance(name, str) and name != "", f"{where}: missing generator name")
    _require_name(name, f"{where}: name")
    rename = raw.get("rename")
    if rename is not None:
        _require(isinstance(rename, str) and rename != "", f"{where}: bad rename")
        _require_name(rename, f"{where}: rename")
    sigma_raw = raw.get("sigma", [])
    _require(isinstance(sigma_raw, list), f"{where}: sigma must be a list")
    if len(sigma_raw) != k - 1:
        raise ArityMismatch(
            f"{where}: stage {k} needs exactly {k - 1} sigma entries, got {len(sigma_raw)}"
        )
    sigma = tuple(read(s, f"{where}: sigma[{i}]") for i, s in enumerate(sigma_raw))
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
        try:
            tree, used = parse_with_names(entry)
        except ExprSyntaxError as exc:
            exc.args = (f"{where}: delta[{idx}]: {exc}",)
            raise
        unknown = used - set(earlier) - set(ctx.names)
        if unknown:
            raise UnknownIdentifier(
                f"{where}: delta[{idx}] references unknown name(s) {sorted(unknown)}"
            )
        deltas.append(tree)
    while len(deltas) < k - 1:
        deltas.append(None)
    return StageSpec(name, sigma, tuple(deltas), rename)


def _parse_image(
    entry: object, where: str, space: SelectiveSpace, names: tuple[str, ...]
) -> TorusElement:
    """A derivation image of a block; it must lie in the block's space."""
    text = _entry_text(entry, where)
    try:
        image = parse_element(text, space.Q.ctx, space.Q, names)
    except InputError as exc:
        exc.args = (f"{where}: {exc}",)
        raise
    if not membership(space, image):
        raise MembershipViolation(f"{where}: image leaves the space")
    return image


def _parse_block(raw: dict, ctx: ParameterContext, read: _UnitReader) -> StandaloneBlock:
    names = raw.get("generators")
    _require(
        isinstance(names, list) and all(isinstance(s, str) for s in names),
        "generators must be a list of names",
    )
    names = tuple(names)
    for i, name in enumerate(names):
        _require_name(name, f"generators[{i}]")
    _require(len(set(names)) == len(names), "generator names must be distinct")
    _require(not set(names) & set(ctx.names), "generator names collide with parameters")
    matrix = raw.get("matrix")
    _require(isinstance(matrix, list) and len(matrix) == len(names), "matrix size mismatch")
    rows = []
    for r, row in enumerate(matrix):
        _require(isinstance(row, list) and len(row) == len(names), "matrix row size mismatch")
        rows.append([read(v, f"matrix[{r}][{c}]") for c, v in enumerate(row)])
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
        lambdas = tuple(read(v, f"lambda[{i}]") for i, v in enumerate(lam))
        sigma = ToricAutomorphism(ctx, lambdas)

    images = None
    if "derivation" in raw:
        der = raw["derivation"]
        _require(isinstance(der, dict), "derivation must map generator names to expressions")
        unknown = set(der) - set(names)
        if unknown:
            raise UnknownIdentifier(f"derivation images for unknown generator(s) {sorted(unknown)}")
        images = tuple(
            _parse_image(der.get(name, "0"), f"derivation[{name!r}]", space, names)
            for name in names
        )
        _require(sigma is not None, "a derivation block needs a lambda entry")
    return StandaloneBlock(names, space, sigma, images)


def parse_presentation(text: str) -> PresentationFile:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"not valid JSON: {exc}") from None
    except ValueError:  # an integer with more digits than the interpreter converts
        raise InputError("not valid JSON: integer literal too long") from None
    except RecursionError:
        raise InputError("not valid JSON: nested too deeply") from None
    _require(isinstance(raw, dict), "top level must be an object")
    _require_known_keys(raw, _FILE_KEYS, "")

    params = raw.get("parameters", [])
    _require(
        isinstance(params, list) and all(isinstance(p, str) for p in params),
        "parameters must be a list of names",
    )
    for i, param in enumerate(params):
        _require_name(param, f"parameters[{i}]")
    _require(len(set(params)) == len(params), "parameter names must be distinct")
    ctx = ParameterContext(params)
    read = _UnitReader(ctx)

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
            spec = _parse_stage(entry, k, ctx, read, earlier)
            for label in filter(None, (spec.name, spec.rename)):
                if label in seen:
                    raise InputError(f"duplicate name {label!r}")
                seen.add(label)
            earlier.append(spec.name)
            specs.append(spec)
        stages = tuple(specs)

    block = None
    if "matrix" in raw or "generators" in raw:
        block = _parse_block(raw, ctx, read)

    if stages is None and block is None:
        raise InputError("the file declares neither stages nor a standalone block")
    return PresentationFile(ctx, stages, block)


def load_presentation(path: str) -> PresentationFile:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_presentation(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
