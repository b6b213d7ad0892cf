"""The staged algorithm on iterated Ore extensions of the base field.

The input presents ``K[x_1][x_2; s_2, d_2]...[x_n; s_n, d_n]`` where each
``s_i`` scales every earlier original generator and ``d_i`` is a compatible
skew derivation.  Stage ``i`` holds a selectively localized quantum space
containing the first ``i - 1`` originals.  The stage translates ``s_i`` and
``d_i`` to the canonical generators, splits the derivation into homogeneous
components and classifies each one.  If some component is conjugate to a
derivation the run stops and produces an explicit pair ``u, p`` with
``u p - p u = 1``; otherwise the derivation is deleted: the new canonical
generator is the normal element ``y x_i - t`` where ``y`` is the product of
the generators carrying locally inner components and ``t`` collects their
inducers together with the inner part.  Whatever is appended is certified
before the next stage starts, by torus identities that the one-variable
Ore extension reduces it to.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from .errors import (
    Inconsistent,
    InputError,
    MembershipViolation,
    NonEigenvector,
    NotADerivation,
    NotNormal,
    SkewtorError,
)
from .exprs import Expr, evaluate
from .ore import OreElement
from .presentation import StageSpec
from .scalars import (
    FieldElement,
    ParameterContext,
    UnitMonomial,
    max_support_from_environment,
    um_prod,
)
from .skewder import (
    ComponentReport,
    HomogeneousComponent,
    SkewDerivation,
    ToricAutomorphism,
    apply_auto,
    classify_component,
    decompose_homogeneous,
    extend_derivation,
    validate_derivation,
)
from .torus import (
    CommutationMatrix,
    ExponentVec,
    SelectiveSpace,
    TorusElement,
    elem_div,
    elem_inv,
    elem_mul,
    elem_pow,
    elem_scale,
    indicator,
    membership,
    monomial_inverse,
)


@dataclass(frozen=True)
class Original:
    """A canonical generator that is the k-th original generator itself: the
    generator of every stage whose derivation is zero, stage 1 included."""

    k: int  # index of the original generator this one equals


@dataclass(frozen=True)
class Derived:
    """A canonical generator made by deleting the derivation of one stage.

    ``t`` is never zero: it has one term ``y * inducer`` for each component
    of the deleted derivation, which is nonzero, and the components have
    distinct weights, so no two terms cancel.
    """

    J: tuple[int, ...]  # canonical generators localized at this stage
    stage: int  # index of the original generator being adjoined
    t: TorusElement  # the subtracted part: new generator = y * x_stage - t


Provenance = Original | Derived


@dataclass(frozen=True)
class AlgebraState:
    """A selectively localized quantum space plus bookkeeping.

    ``space`` is held once; ``ctx``, ``Q``, ``inverted`` and ``n`` are read
    from it.  There is one original generator per canonical one, and
    ``orig_expr[k]`` expresses the k-th original generator in the
    canonical ones; every stored element is kept padded to the current
    ambient size.
    """

    space: SelectiveSpace
    names: tuple[str, ...]
    provenance: tuple[Provenance, ...]
    orig_names: tuple[str, ...]
    orig_expr: tuple[TorusElement, ...]

    @property
    def Q(self) -> CommutationMatrix:
        return self.space.Q

    @property
    def ctx(self) -> ParameterContext:
        return self.space.Q.ctx

    @property
    def inverted(self) -> frozenset[int]:
        return self.space.inverted

    @property
    def n(self) -> int:
        return self.space.n

    def generator(self, i: int, power: int = 1) -> TorusElement:
        return TorusElement.generator(self.ctx, self.n, i, power)


def empty_state(ctx: ParameterContext) -> AlgebraState:
    return AlgebraState(SelectiveSpace(CommutationMatrix(ctx, []), ()), (), (), (), ())


@dataclass(frozen=True)
class StageReport:
    """What one stage did, as the report prints it: the stage map on the
    canonical generators, the verdict on each component and, when the
    derivation was deleted, the localized set J, the subtracted part t, the
    appended commutation row and the certified normality table."""

    stage: int  # 1-based stage number
    name: str
    canonical_name: str
    lambdas: tuple[UnitMonomial, ...]
    components: tuple[ComponentReport, ...]
    J: tuple[int, ...]
    t: TorusElement | None
    new_row: tuple[UnitMonomial, ...]
    normal_table: tuple[tuple[str, UnitMonomial | None], ...]


@dataclass(frozen=True)
class TorusEmbedding:
    """Outcome of a run in which every stage's derivation was deleted."""

    state: AlgebraState
    trace: tuple[StageReport, ...]


@dataclass(frozen=True)
class WeylWitness:
    """Outcome of a run stopped at a stage with a component conjugate to a
    derivation: the certified pair with u p - p u = 1."""

    stage: int
    weight: ExponentVec
    u: OreElement  # (a_i x^(weight + e_i))^-1 (z - shift), of degree 1 in z
    p: OreElement  # the generator x_i
    trace: tuple[StageReport, ...]
    names: tuple[str, ...]  # canonical names of the ambient, z excluded
    var_name: str = "z"
    unprocessed: tuple[str, ...] = ()


Outcome = TorusEmbedding | WeylWitness


# -- stage machinery ----------------------------------------------------------


def canonical_eigenvalues(
    state: AlgebraState, taueigs: Sequence[UnitMonomial]
) -> tuple[UnitMonomial, ...]:
    """Eigenvalues of the canonical generators under the map scaling original
    k by taueigs[k]; verified against the provenance data."""
    ctx = state.ctx
    eigs: list[UnitMonomial] = []
    for g in range(state.n):
        prov = state.provenance[g]
        if isinstance(prov, Original):
            rho = taueigs[prov.k]
        else:
            rho = um_prod(ctx, ((eigs[j], 1) for j in prov.J)) * taueigs[prov.stage]
            for e, _ in prov.t:
                val = um_prod(ctx, zip(eigs, e))
                if val != rho:
                    raise NonEigenvector(
                        f"generator {state.names[g]!r}: its defining element is "
                        "not an eigenvector of the stage map"
                    )
        eigs.append(rho)
    return tuple(eigs)


def _eval_in_state(state: AlgebraState, tree: Expr, memo: dict | None = None) -> TorusElement:
    """Evaluate an expression over original generator names inside the state;
    ``memo`` is passed on to ``evaluate`` and only valid for this state."""
    ctx, n, Q = state.ctx, state.n, state.Q
    bindings = dict(zip(state.orig_names, state.orig_expr))

    def constant(c) -> TorusElement:
        return TorusElement.scalar(ctx, n, FieldElement.rational(ctx, c))

    def atom(name: str, k: int) -> TorusElement:
        if name in bindings:
            return elem_pow(Q, bindings[name], k)
        if name in ctx.names:
            return TorusElement.scalar(ctx, n, FieldElement.parameter(ctx, name, k))
        raise InputError(f"unknown generator or parameter {name!r}")

    return evaluate(
        tree, constant, atom, lambda a, b: elem_mul(Q, a, b), lambda a, b: elem_div(Q, a, b), memo
    )


def translate_derivation(
    state: AlgebraState, stage: StageSpec
) -> tuple[SkewDerivation, ToricAutomorphism]:
    """Express the stage data on the canonical generators and validate it.

    An unchanged generator takes its delta entry as it is; a derived one
    ``y x_k - t`` is sent to ``sigma(y) d(x_k) + d(y) x_k - d(t)``.  On the
    empty state this is the zero derivation on no generators.
    """
    ctx, n, Q = state.ctx, state.n, state.Q
    if len(stage.sigma_eigs) != n:
        raise InputError(
            f"stage {stage.name!r} supplies {len(stage.sigma_eigs)} eigenvalues "
            f"for {n} earlier generators"
        )
    eigs = canonical_eigenvalues(state, stage.sigma_eigs)
    sigma = ToricAutomorphism(ctx, eigs)

    # a sum repeated across the delta entries (the inducer of an inner part,
    # say) is evaluated once
    memo: dict[Expr, TorusElement] = {}
    deltas: list[TorusElement] = []
    for k in range(n):
        tree = stage.delta_exprs[k] if k < len(stage.delta_exprs) else None
        deltas.append(
            TorusElement.zero(ctx, n) if tree is None else _eval_in_state(state, tree, memo)
        )

    images: list[TorusElement] = []
    for g in range(n):
        prov = state.provenance[g]
        if isinstance(prov, Original):
            im = deltas[prov.k]
        else:
            # only ever applied to earlier generators
            partial = SkewDerivation.trusted(
                Q, sigma, tuple(images) + tuple(TorusElement.zero(ctx, n) for _ in range(n - g))
            )
            y = TorusElement.monomial(ctx, n, indicator(n, prov.J))
            im = elem_mul(Q, apply_auto(sigma, y), deltas[prov.stage])
            im = im + elem_mul(Q, extend_derivation(partial, y), state.orig_expr[prov.stage])
            im = im - extend_derivation(partial, prov.t)
        if not membership(state.space, im):
            raise MembershipViolation(
                f"image of canonical generator {state.names[g]!r} leaves the space"
            )
        images.append(im)

    der = SkewDerivation(Q, sigma, images)
    try:
        validate_derivation(der)
    except NotADerivation as exc:
        i, j = exc.pair
        exc.args = (
            "generator images violate the relation between "
            f"{state.names[i]!r} and {state.names[j]!r}",
        )
        raise
    return der, sigma


def normalizing_scalar(Q: CommutationMatrix, J: Sequence[int], exps: ExponentVec) -> UnitMonomial:
    """Eigenvalue of x^exps under the normalizing map of y = prod_{j in J} x_j."""
    return um_prod(Q.ctx, ((Q.entry(l, j), e) for j in J for l, e in enumerate(exps)))


def verify_normal(
    state: AlgebraState,
    delta: SkewDerivation,
    J: Sequence[int],
    t: TorusElement,
) -> tuple[tuple[str, UnitMonomial | None], ...]:
    """Certify that v = y z - t is normal in the one-variable extension.

    Returns the table of unit scalars c with ``v g = c g v``, one per
    canonical generator and one for z itself.  The z entry is None when no
    single scalar works (v is still normal as a set in that case).

    Moving z past a torus element with ``z r = sigma(r) z + delta(r)`` turns
    ``v x_l = c x_l v`` into the monomial identity ``lambda_l y x_l = c x_l y``
    (the z coefficients) plus the torus identity
    ``y delta(x_l) - t x_l + c x_l t = 0``.  With ``nu`` the eigenvalue of y,
    ``v z = nu^-1 z v`` holds exactly when ``delta(t) = 0`` and
    ``sigma(t) - delta(y) = nu t``.
    """
    ctx, n, Q = state.ctx, state.n, state.Q
    sigma = delta.sigma
    y = TorusElement.monomial(ctx, n, indicator(n, J))

    table: list[tuple[str, UnitMonomial | None]] = []
    for l in range(n):
        x = state.generator(l)
        scalar = sigma.lambdas[l] * normalizing_scalar(Q, J, indicator(n, (l,))).inv()
        c = FieldElement.from_unit(scalar)
        lam = FieldElement.from_unit(sigma.lambdas[l])
        z_part = elem_scale(lam, elem_mul(Q, y, x)) - elem_scale(c, elem_mul(Q, x, y))
        torus_part = (
            elem_mul(Q, y, delta.images[l])
            - elem_mul(Q, t, x)
            + elem_scale(c, elem_mul(Q, x, t))
        )
        for residual in (z_part, torus_part):
            if not residual.is_zero():
                raise NotNormal(
                    f"new generator fails normality against {state.names[l]!r}",
                    generator=state.names[l],
                    residual=residual,
                )
        table.append((state.names[l], scalar))

    nu = sigma.eigenvalue(indicator(n, J))
    z_normal = extend_derivation(delta, t).is_zero() and (
        apply_auto(sigma, t) - extend_derivation(delta, y)
        == elem_scale(FieldElement.from_unit(nu), t)
    )
    table.append(("z", nu.inv() if z_normal else None))
    return tuple(table)


def extend_by_ore(
    state: AlgebraState,
    delta: SkewDerivation,
    stage_no: int,
    name: str,
    canonical_name: str,
) -> (
    tuple[SelectiveSpace, StageReport]
    | tuple[ExponentVec, tuple[ComponentReport, ...]]
):
    """Classify the stage derivation and build the extended space.

    Returns the extended space with the report of stage ``stage_no``, which
    adjoins ``name`` as ``canonical_name``; or the offending weight with the
    component reports when some component is conjugate to a derivation (the
    Weyl-algebra case).
    """
    ctx, n, Q = state.ctx, state.n, state.Q
    sigma = delta.sigma
    space = state.space
    reports = tuple(
        classify_component(comp, sigma, space) for comp in decompose_homogeneous(delta)
    )
    outer = [r.weight for r in reports if r.kind == "outer_conjugate"]
    if outer:
        return outer[0], reports
    inner_part = TorusElement.zero(ctx, n)
    locals_: list[tuple[int, TorusElement]] = []
    for r in reports:
        if r.kind == "inner":
            inner_part = inner_part + r.inducer
        else:
            locals_.append((r.j, r.inducer))

    J = tuple(sorted({j for j, _ in locals_}))
    y = TorusElement.monomial(ctx, n, indicator(n, J))

    t = TorusElement.zero(ctx, n)
    sig_phi_parts: list[TorusElement] = []
    for _, inducer in locals_:
        part = elem_mul(Q, y, inducer)
        if not membership(space, part):
            raise MembershipViolation("locally inner inducer leaves the space")
        sig_phi_parts.append(part)
        t = t + part
    if not inner_part.is_zero():
        part = elem_mul(Q, y, inner_part)
        if not membership(space, part):
            raise MembershipViolation("inner part leaves the space")
        t = t + part

    # the locally inner part of t must have matching stage and normalizing
    # eigenvalues; this is forced for valid input
    for part in sig_phi_parts:
        for e, _ in part:
            if sigma.eigenvalue(e) != normalizing_scalar(Q, J, e):
                raise Inconsistent(
                    "normalizing and stage eigenvalues disagree on the deleted part"
                )

    table = verify_normal(state, delta, J, t)
    new_row = tuple(scalar for _, scalar in table[:-1])
    new_space = SelectiveSpace(Q.append_row(new_row), state.inverted | set(J))
    report = StageReport(
        stage_no, name, canonical_name, sigma.lambdas, reports, J, t, new_row, table
    )
    return new_space, report


def weyl_witness(
    state: AlgebraState,
    delta: SkewDerivation,
    weight: ExponentVec,
    reports: Sequence[ComponentReport],
) -> tuple[OreElement, OreElement]:
    """Produce u, p with u p - p u = 1 in the extension by z.

    u is L^-1 (z - shift) with L = a_i x^(weight + e_i), where a_i is a
    nonzero coefficient of the conjugate-to-derivation component and the
    shift removes every component that is inner on the full torus; p = x_i.
    Moving z past x_i gives ``u p - p u = (lambda_i L^-1 x_i - x_i L^-1) z
    + L^-1 (delta(x_i) - shift x_i) + x_i L^-1 shift``, so the identity is a
    monomial check plus a torus identity, both verified before returning.

    ``reports`` are the classifications ``extend_by_ore`` made on the
    selective space, one per component.  A component inner or locally inner
    there is inner on the torus with the same inducer (the same first
    nonzero coefficient over the same drop).  One reported conjugate to a
    derivation stays so on the torus, unless a cocycle mismatch at an
    inverted index makes it inconsistent there; it is classified again on
    the torus, which raises ``Inconsistent`` in that case.
    """
    ctx, n, Q = state.ctx, state.n, state.Q
    sigma = delta.sigma
    torus = state.space.torus()
    shift = TorusElement.zero(ctx, n)
    target: HomogeneousComponent | None = None
    for comp, report in zip(decompose_homogeneous(delta), reports, strict=True):
        if report.kind != "outer_conjugate":
            shift = shift + report.inducer
            continue
        classify_component(comp, sigma, torus)
        if comp.weight == weight:
            target = comp
    if target is None:
        raise Inconsistent(f"no conjugate-to-derivation component at weight {weight}")
    i = next(k for k in range(n) if not target.coeffs[k].is_zero())
    g = list(weight)
    g[i] += 1
    lead_inv = elem_inv(Q, TorusElement.monomial(ctx, n, tuple(g), target.coeffs[i]))
    x = state.generator(i)
    lam = FieldElement.from_unit(sigma.lambdas[i])
    x_lead_inv = elem_mul(Q, x, lead_inv)
    z_part = elem_scale(lam, elem_mul(Q, lead_inv, x)) - x_lead_inv
    torus_part = (
        elem_mul(Q, lead_inv, delta.images[i] - elem_mul(Q, shift, x))
        + elem_mul(Q, x_lead_inv, shift)
    )
    if not z_part.is_zero() or torus_part != TorusElement.one(ctx, n):
        raise Inconsistent(
            "Weyl certificate failed to verify; the derivation has "
            "conjugate-to-derivation components at several weights"
        )
    u = OreElement.make(delta, {1: lead_inv, 0: elem_mul(Q, lead_inv, -shift)})
    return u, OreElement.from_torus(delta, x)


def _adjoin(
    state: AlgebraState,
    space: SelectiveSpace,
    name: str,
    prov: Provenance,
    orig_name: str,
    orig_expr: TorusElement,
) -> AlgebraState:
    """Append one canonical generator, and the expression of one original
    generator, to the state; earlier data is padded to the new size."""
    n = space.n
    return AlgebraState(
        space,
        state.names + (name,),
        tuple(_pad_prov(p, n) for p in state.provenance) + (prov,),
        state.orig_names + (orig_name,),
        tuple(e.extend_to(n) for e in state.orig_expr) + (orig_expr,),
    )


def run_stage(
    state: AlgebraState, stage: StageSpec, stage_no: int
) -> tuple[AlgebraState, StageReport] | WeylWitness:
    """Adjoin one generator: unchanged when the stage derivation is zero,
    as ``y x_i - t`` when it is deleted; or stop with a Weyl pair."""
    ctx, n = state.ctx, state.n
    new_n = n + 1
    delta, sigma = translate_derivation(state, stage)

    if delta.is_zero():
        row = sigma.lambdas
        space = SelectiveSpace(state.Q.append_row(row), state.inverted)
        new_state = _adjoin(
            state, space, stage.name, Original(n), stage.name,
            TorusElement.generator(ctx, new_n, n),
        )
        report = StageReport(stage_no, stage.name, stage.name, row, (), (), None, row, ())
        return new_state, report

    canonical_name = stage.rename or f"w{stage_no}"
    result = extend_by_ore(state, delta, stage_no, stage.name, canonical_name)
    if not isinstance(result[0], SelectiveSpace):
        weight, reports = result
        u, p = weyl_witness(state, delta, weight, reports)
        return WeylWitness(
            stage_no, weight, u, p, trace=(), names=state.names, var_name=stage.name,
        )

    space, report = result
    t_new = report.t.extend_to(new_n)
    # x_i = y^-1 (v + t), evaluated in the extended matrix
    y_inv = monomial_inverse(space.Q, indicator(new_n, report.J))
    v_plus_t = TorusElement.generator(ctx, new_n, n) + t_new
    new_state = _adjoin(
        state, space, canonical_name, Derived(report.J, n, t_new),
        stage.name, elem_mul(space.Q, y_inv, v_plus_t),
    )
    return new_state, report


def _pad_prov(p: Provenance, n: int) -> Provenance:
    if isinstance(p, Derived):
        return Derived(p.J, p.stage, p.t.extend_to(n))
    return p


def run_all(ctx: ParameterContext, stages: Sequence[StageSpec]) -> Outcome:
    """Fold the stages; deterministic given the input."""
    if not stages:
        raise InputError("empty stages list")
    state = empty_state(ctx)
    trace: list[StageReport] = []
    with max_support_from_environment():
        for idx, stage in enumerate(stages, start=1):
            try:
                result = run_stage(state, stage, idx)
            except SkewtorError as exc:
                exc.args = (f"stage {idx} ({stage.name!r}): {exc}",)
                raise
            if isinstance(result, WeylWitness):
                remaining = tuple(s.name for s in stages[idx:])
                return replace(result, trace=tuple(trace), unprocessed=remaining)
            state, report = result
            trace.append(report)
    return TorusEmbedding(state, tuple(trace))
