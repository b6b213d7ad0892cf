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
from .render import render_element
from .scalars import (
    FieldElement,
    ParameterContext,
    UnitMonomial,
    max_support_from_environment,
    um_prod,
)
from .skewder import (
    ComponentReport,
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


def _commutator_parts(
    state: AlgebraState, delta: SkewDerivation,
    a: TorusElement, b: TorusElement, l: int, c: FieldElement,
) -> tuple[TorusElement, TorusElement]:
    """The z coefficient and the torus part of ``w x_l - c x_l w`` for
    ``w = a z + b``.

    ``z x_l = lambda_l x_l z + delta(x_l)`` turns it into
    ``(lambda_l a x_l - c x_l a) z + a delta(x_l) + b x_l - c x_l b``.
    """
    Q = state.Q
    x = state.generator(l)
    lam = FieldElement.from_unit(delta.sigma.lambdas[l])
    return (
        elem_scale(lam, elem_mul(Q, a, x)) - elem_scale(c, elem_mul(Q, x, a)),
        elem_mul(Q, a, delta.images[l]) + elem_mul(Q, b, x) - elem_scale(c, elem_mul(Q, x, b)),
    )


def _shown(u: TorusElement, names: tuple[str, ...]) -> str:
    """``u`` as the reports print it, cut after 200 characters."""
    text = render_element(u, names)
    return text if len(text) <= 200 else text[:200] + "…"


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

    ``v x_l = c x_l v`` holds when both parts ``_commutator_parts`` returns
    for ``a = y``, ``b = -t`` and that c are zero: the monomial identity
    ``lambda_l y x_l = c x_l y`` and the torus identity
    ``y delta(x_l) - t x_l + c x_l t = 0``.  With ``nu`` the eigenvalue of y,
    ``v z = nu^-1 z v`` holds exactly when ``delta(t) = 0`` and
    ``sigma(t) - delta(y) = nu t``.
    """
    ctx, n, Q = state.ctx, state.n, state.Q
    sigma = delta.sigma
    y = TorusElement.monomial(ctx, n, indicator(n, J))
    minus_t = -t

    table: list[tuple[str, UnitMonomial | None]] = []
    for l in range(n):
        scalar = sigma.lambdas[l] * normalizing_scalar(Q, J, indicator(n, (l,))).inv()
        c = FieldElement.from_unit(scalar)
        for residual in _commutator_parts(state, delta, y, minus_t, l, c):
            if not residual.is_zero():
                raise NotNormal(
                    f"new generator fails normality against {state.names[l]!r}; "
                    f"residual {_shown(residual, state.names)}",
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
) -> tuple[SelectiveSpace | None, StageReport]:
    """Classify the stage derivation and build the extended space.

    Returns the extended space with the report of stage ``stage_no``, which
    adjoins ``name`` as ``canonical_name``.  When some component is
    conjugate to a derivation (the Weyl-algebra case) the space is None and
    the report carries the component verdicts alone.
    """
    ctx, n, Q = state.ctx, state.n, state.Q
    sigma = delta.sigma
    reports = tuple(
        classify_component(comp, sigma, state.space) for comp in decompose_homogeneous(delta)
    )
    report = StageReport(stage_no, name, canonical_name, sigma.lambdas, reports, (), None, (), ())
    if any(r.kind == "outer_conjugate" for r in reports):
        return None, report

    locals_ = [r for r in reports if r.kind == "locally_inner"]
    J = tuple(sorted({r.j for r in locals_}))
    y_exps = indicator(n, J)
    # each component adds one term at its own weight; the locally inner
    # inducers come first, since the order of t's terms feeds later sums
    ordered = locals_ + [r for r in reports if r.kind == "inner"]
    inducers = sum((r.inducer for r in ordered), TorusElement.zero(ctx, n))
    t = elem_mul(Q, TorusElement.monomial(ctx, n, y_exps), inducers)
    if not membership(state.space, t):
        raise MembershipViolation("the subtracted part t leaves the space")

    # the locally inner terms y x^weight of t must have matching stage and
    # normalizing eigenvalues; this is forced for valid input
    for r in locals_:
        e = tuple(a + b for a, b in zip(y_exps, r.weight))
        if sigma.eigenvalue(e) != normalizing_scalar(Q, J, e):
            raise Inconsistent("normalizing and stage eigenvalues disagree on the deleted part")

    table = verify_normal(state, delta, J, t)
    new_row = tuple(scalar for _, scalar in table[:-1])
    new_space = SelectiveSpace(Q.append_row(new_row), state.inverted | set(J))
    return new_space, replace(report, J=J, t=t, new_row=new_row, normal_table=table)


def weyl_witness(
    state: AlgebraState,
    delta: SkewDerivation,
    reports: Sequence[ComponentReport],
) -> tuple[ExponentVec, OreElement, OreElement]:
    """Produce the weight and u, p with u p - p u = 1 in the extension by z.

    ``reports`` are the verdicts ``extend_by_ore`` made on the selective
    space, one per component; the weight is that of the first one conjugate
    to a derivation.  u is L^-1 (z - shift), where L = a_i x^(weight + e_i)
    is that component's term in delta(x_i) for the first i that has one and
    the shift sums the other components' inducers; p = x_i.  For
    ``a = L^-1``, ``b = -L^-1 shift`` and ``c = 1``, ``_commutator_parts``
    gives the z coefficient and the torus part of u p - p u, which are
    checked to be 0 and 1 before returning.

    The verdicts on the space hold on the torus.  A validated component
    satisfies ``a_i drop_j = a_j drop_i`` for every pair, inverted indices
    included.  One conjugate to a derivation on its space has a zero drop
    where its coefficient is nonzero, so every drop is zero and it is
    conjugate to a derivation on the torus too.  Inner and locally inner
    components keep their inducers there: the same first nonzero
    coefficient over the same drop.
    """
    ctx, n, Q = state.ctx, state.n, state.Q
    weight = next(r.weight for r in reports if r.kind == "outer_conjugate")
    others = (r.inducer for r in reports if r.kind != "outer_conjugate")
    shift = sum(others, TorusElement.zero(ctx, n))
    leads = [tuple(w + (j == k) for j, w in enumerate(weight)) for k in range(n)]
    i = next(k for k in range(n) if leads[k] in delta.images[k].terms)
    L = TorusElement.monomial(ctx, n, leads[i], delta.images[i].terms[leads[i]])
    lead_inv = elem_inv(Q, L)
    b = elem_mul(Q, lead_inv, -shift)
    z_part, torus_part = _commutator_parts(state, delta, lead_inv, b, i, FieldElement.one(ctx))
    if not z_part.is_zero() or torus_part != TorusElement.one(ctx, n):
        got = (
            f"z coefficient of u*p - p*u = {_shown(z_part, state.names)}"
            if not z_part.is_zero()
            else f"u*p - p*u = {_shown(torus_part, state.names)}"
        )
        raise Inconsistent(
            "Weyl certificate failed to verify; the derivation has "
            f"conjugate-to-derivation components at several weights: {got}"
        )
    u = OreElement.make(delta, {1: lead_inv, 0: b})
    return weight, u, OreElement.from_torus(delta, state.generator(i))


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
    space, report = extend_by_ore(state, delta, stage_no, stage.name, canonical_name)
    if space is None:
        weight, u, p = weyl_witness(state, delta, report.components)
        return WeylWitness(
            stage_no, weight, u, p, trace=(), names=state.names, var_name=stage.name,
        )

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
