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
from .scalars import FieldElement, ParameterContext, UnitMonomial, um_prod
from .skewder import (
    HomogeneousComponent,
    Inner,
    LocallyInner,
    OuterConjugate,
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
    elem_inv,
    elem_mul,
    elem_pow,
    elem_scale,
    indicator,
    membership,
    monomial_inverse,
)


@dataclass(frozen=True)
class StageSpec:
    """One stage of the presentation.

    ``sigma_eigs[k]`` is the eigenvalue of the stage map on the k-th original
    generator; ``delta_exprs[k]`` is the image of that generator, as an
    expression tree over the original generator names (zero when absent).
    """

    name: str
    sigma_eigs: tuple[UnitMonomial, ...]
    delta_exprs: tuple[Expr | None, ...]
    rename: str | None = None


@dataclass(frozen=True)
class Original:
    k: int  # index of the original generator this one equals


@dataclass(frozen=True)
class Derived:
    J: tuple[int, ...]  # canonical generators localized at this stage
    stage: int  # index of the original generator being adjoined
    t: TorusElement  # the subtracted part: new generator = y * x_stage - t


Provenance = Original | Derived


@dataclass(frozen=True)
class AlgebraState:
    """A selectively localized quantum space plus bookkeeping.

    ``orig_expr[k]`` expresses the k-th original generator in the canonical
    ones; every stored element is kept padded to the current ambient size.
    """

    ctx: ParameterContext
    Q: CommutationMatrix
    inverted: frozenset[int]
    names: tuple[str, ...]
    provenance: tuple[Provenance, ...]
    orig_names: tuple[str, ...]
    orig_expr: tuple[TorusElement, ...]

    @property
    def n(self) -> int:
        return self.Q.n

    @property
    def space(self) -> SelectiveSpace:
        return SelectiveSpace(self.Q, self.inverted)

    def generator(self, i: int, power: int = 1) -> TorusElement:
        return TorusElement.generator(self.ctx, self.n, i, power)


def empty_state(ctx: ParameterContext) -> AlgebraState:
    return AlgebraState(
        ctx, CommutationMatrix(ctx, []), frozenset(), (), (), (), ()
    )


@dataclass(frozen=True)
class ComponentReport:
    weight: ExponentVec
    kind: str  # "inner" | "locally_inner" | "outer_conjugate"
    j: int | None
    inducer: TorusElement | None


@dataclass(frozen=True)
class StageReport:
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
    state: AlgebraState
    trace: tuple[StageReport, ...]


@dataclass(frozen=True)
class WeylWitness:
    stage: int
    weight: ExponentVec
    u: OreElement  # (a_i x^(weight + e_i))^-1 (z - shift), of degree 1 in z
    p: OreElement  # the generator x_i
    certified: bool
    trace: tuple[StageReport, ...]
    names: tuple[str, ...] = ()  # canonical names of the ambient, z excluded
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
            rho = um_prod(ctx, (eigs[j] for j in prov.J)) * taueigs[prov.stage]
            for e, _ in prov.t:
                val = um_prod(ctx, (eigs[i].pow(k) for i, k in enumerate(e) if k))
                if val != rho:
                    raise NonEigenvector(
                        f"generator {state.names[g]!r}: its defining element is "
                        "not an eigenvector of the stage map"
                    )
        eigs.append(rho)
    return tuple(eigs)


def _eval_in_state(state: AlgebraState, tree: Expr) -> TorusElement:
    """Evaluate an expression over original generator names inside the state."""
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

    def multiply(a: TorusElement, b: TorusElement) -> TorusElement:
        return elem_mul(Q, a, b)

    def divide(a: TorusElement, b: TorusElement) -> TorusElement:
        st = b.single_term()
        if st is None:
            raise InputError("division by a sum is not defined here")
        e, c = st
        if any(e):
            return elem_mul(Q, a, elem_scale(c.inv(), monomial_inverse(Q, e)))
        return elem_scale(c.inv(), a)

    return evaluate(tree, constant, atom, multiply, divide)


def translate_derivation(
    state: AlgebraState, stage: StageSpec
) -> tuple[SkewDerivation, ToricAutomorphism]:
    """Express the stage data on the canonical generators and validate it."""
    ctx, n, Q = state.ctx, state.n, state.Q
    if len(stage.sigma_eigs) != len(state.orig_names):
        raise InputError(
            f"stage {stage.name!r} supplies {len(stage.sigma_eigs)} eigenvalues "
            f"for {len(state.orig_names)} earlier generators"
        )
    eigs = canonical_eigenvalues(state, stage.sigma_eigs)
    sigma = ToricAutomorphism(ctx, eigs)

    deltas: list[TorusElement] = []
    for k in range(len(state.orig_names)):
        tree = stage.delta_exprs[k] if k < len(stage.delta_exprs) else None
        deltas.append(
            TorusElement.zero(ctx, n) if tree is None else _eval_in_state(state, tree)
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
    violation = validate_derivation(der)
    if violation is not None:
        raise NotADerivation(
            "generator images violate the relation between "
            f"{state.names[violation.i]!r} and {state.names[violation.j]!r}",
            pair=(violation.i, violation.j),
        )
    return der, sigma


def normalizing_scalar(Q: CommutationMatrix, J: Sequence[int], exps: ExponentVec) -> UnitMonomial:
    """Eigenvalue of x^exps under the normalizing map of y = prod_{j in J} x_j."""
    return um_prod(
        Q.ctx,
        (Q.entry(l, j).pow(e) for j in J for l, e in enumerate(exps) if e),
    )


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


@dataclass(frozen=True)
class Extension:
    """Result of deleting the derivation from one Ore extension step."""

    space: SelectiveSpace
    J: tuple[int, ...]
    t: TorusElement
    new_row: tuple[UnitMonomial, ...]
    components: tuple[ComponentReport, ...]
    normal_table: tuple[tuple[str, UnitMonomial | None], ...]


def extend_by_ore(
    state: AlgebraState, delta: SkewDerivation
) -> Extension | tuple[ExponentVec, tuple[ComponentReport, ...]]:
    """Classify the stage derivation and build the extended space.

    Returns an Extension on success, or the offending weight when some
    component is conjugate to a derivation (the Weyl-algebra case).
    """
    ctx, n, Q = state.ctx, state.n, state.Q
    sigma = delta.sigma
    space = state.space
    comps = decompose_homogeneous(delta)
    reports: list[ComponentReport] = []
    inner_part = TorusElement.zero(ctx, n)
    locals_: list[tuple[int, TorusElement]] = []
    outer_weight: ExponentVec | None = None
    for comp in comps:
        cls = classify_component(comp, sigma, space)
        if isinstance(cls, Inner):
            inner_part = inner_part + cls.inducer
            reports.append(ComponentReport(comp.weight, "inner", None, cls.inducer))
        elif isinstance(cls, LocallyInner):
            locals_.append((cls.j, cls.inducer))
            reports.append(ComponentReport(comp.weight, "locally_inner", cls.j, cls.inducer))
        elif isinstance(cls, OuterConjugate):
            reports.append(ComponentReport(comp.weight, "outer_conjugate", None, None))
            if outer_weight is None:
                outer_weight = comp.weight
    if outer_weight is not None:
        return outer_weight, tuple(reports)

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
    return Extension(new_space, J, t, new_row, tuple(reports), table)


def weyl_witness(
    state: AlgebraState,
    delta: SkewDerivation,
    weight: ExponentVec,
) -> tuple[OreElement, OreElement]:
    """Produce u, p with u p - p u = 1 in the extension by z.

    u is L^-1 (z - shift) with L = a_i x^(weight + e_i), where a_i is a
    nonzero coefficient of the conjugate-to-derivation component and the
    shift removes every component that is inner on the full torus; p = x_i.
    Moving z past x_i gives ``u p - p u = (lambda_i L^-1 x_i - x_i L^-1) z
    + L^-1 (delta(x_i) - shift x_i) + x_i L^-1 shift``, so the identity is a
    monomial check plus a torus identity, both verified before returning.
    """
    ctx, n, Q = state.ctx, state.n, state.Q
    sigma = delta.sigma
    torus = state.space.torus()
    comps = decompose_homogeneous(delta)
    shift = TorusElement.zero(ctx, n)
    target: HomogeneousComponent | None = None
    for comp in comps:
        cls = classify_component(comp, sigma, torus)
        if isinstance(cls, (Inner, LocallyInner)):
            shift = shift + cls.inducer
        elif comp.weight == weight:
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
        state.ctx,
        space.Q,
        space.inverted,
        state.names + (name,),
        tuple(_pad_prov(p, n) for p in state.provenance) + (prov,),
        state.orig_names + (orig_name,),
        tuple(e.extend_to(n) for e in state.orig_expr) + (orig_expr,),
    )


def run_stage(
    state: AlgebraState, stage: StageSpec, stage_no: int
) -> tuple[AlgebraState, StageReport] | WeylWitness:
    ctx, n = state.ctx, state.n
    new_n = n + 1
    if n == 0:
        if stage.sigma_eigs:
            raise InputError("the first stage takes no eigenvalue data")
        space = SelectiveSpace(CommutationMatrix(ctx, [[UnitMonomial.one(ctx)]]), frozenset())
        new_state = _adjoin(
            state, space, stage.name, Original(0), stage.name,
            TorusElement.generator(ctx, 1, 0),
        )
        report = StageReport(
            stage_no, stage.name, stage.name, (), (), (), None, (), ()
        )
        return new_state, report

    delta, sigma = translate_derivation(state, stage)

    if delta.is_zero():
        new_row = sigma.lambdas
        space = SelectiveSpace(state.Q.append_row(new_row), state.inverted)
        prov = Derived((), len(state.orig_names), TorusElement.zero(ctx, new_n))
        new_state = _adjoin(
            state, space, stage.name, prov, stage.name,
            TorusElement.generator(ctx, new_n, n),
        )
        report = StageReport(
            stage_no, stage.name, stage.name, sigma.lambdas, (), (), None,
            new_row, (),
        )
        return new_state, report

    result = extend_by_ore(state, delta)
    if isinstance(result, tuple):
        weight, _ = result
        u, p = weyl_witness(state, delta, weight)
        return WeylWitness(
            stage_no, weight, u, p, certified=True, trace=(),
            names=state.names, var_name=stage.name,
        )

    ext = result
    canonical_name = stage.rename or f"w{stage_no}"
    t_new = ext.t.extend_to(new_n)
    # x_i = y^-1 (v + t), evaluated in the extended matrix
    y_inv = monomial_inverse(ext.space.Q, indicator(new_n, ext.J))
    v_plus_t = TorusElement.generator(ctx, new_n, n) + t_new
    new_state = _adjoin(
        state, ext.space, canonical_name, Derived(ext.J, len(state.orig_names), t_new),
        stage.name, elem_mul(ext.space.Q, y_inv, v_plus_t),
    )
    report = StageReport(
        stage_no,
        stage.name,
        canonical_name,
        sigma.lambdas,
        ext.components,
        ext.J,
        ext.t,
        ext.new_row,
        ext.normal_table,
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
