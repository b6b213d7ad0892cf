"""Acceptance suite: the headline computations and the property batteries.

Every comparison is exact symbolic equality; there are no tolerances
anywhere.  The property suites each draw at least 500 seeded random cases
with ambient rank at most 4 and exponents bounded by 3.
"""

import random
import time
from itertools import product

import pytest

from skewtor import (
    FieldElement,
    HomogeneousComponent,
    Inconsistent,
    ParameterContext,
    SelectiveSpace,
    SkewDerivation,
    ToricAutomorphism,
    TorusElement,
    TorusEmbedding,
    UnitMonomial,
    WeylWitness,
    apply_auto,
    classify_component,
    decompose_homogeneous,
    elem_mul,
    elem_scale,
    extend_by_ore,
    extend_derivation,
    is_central,
    membership,
    monomial_mul,
    qrs,
    run_all,
    validate_derivation,
)
from skewtor.orechain import AlgebraState, Derived, Original
from skewtor.presentation import (
    load_presentation,
    parse_element,
    parse_scalar,
    parse_unit,
)

from helpers import (
    CTX as RCTX,
    component_image,
    inner_derivation,
    matrix_from_upper,
    matrix_of_ones,
    random_auto,
    random_element,
    random_inner_derivation,
    random_matrix,
)

P = "presentations"
N_CASES = 500


def test_criterion_1_qmat2x2_case_a():
    """4-stage multiparameter 2x2 run: embedding, new generator, row, table."""
    pres = load_presentation(f"{P}/qmat2x2_caseA.json")
    out = run_all(pres.ctx, pres.stages)
    assert isinstance(out, TorusEmbedding)
    state = out.state
    ctx = pres.ctx
    U = lambda s: parse_unit(s, ctx)
    E = lambda s: parse_element(s, ctx, state.Q, state.names)

    assert state.inverted == frozenset({0})

    # new generator d = x1 x4 - q x2 x3
    prov = state.provenance[3]
    assert isinstance(prov, Derived)
    assert prov.J == (0,) and prov.t == E("q*x2*x3")
    assert state.names[3] == "d"

    # appended commutation row: certified symbolically against the defining
    # relations; entries are lambda_l * q_{1l}
    row = tuple(state.Q.entry(3, l) for l in range(4))
    assert row == (U("l1"), U("r^-1"), U("r"), UnitMonomial.one(ctx))

    # commutation table of d against x1, x2, x3 and the adjoined variable
    table = dict(out.trace[3].normal_table)
    assert table["x1"] == U("l1")
    assert table["x2"] == U("r^-1")
    assert table["x3"] == U("r")
    assert table["z"] == U("l1^-1")


def test_criterion_2_qmat2x2_case_b_weyl():
    """Degenerate eigenvalue: Weyl witness u = x3^-1 x2^-1 x4, p = x1."""
    pres = load_presentation(f"{P}/qmat2x2_caseB.json")
    out = run_all(pres.ctx, pres.stages)
    assert isinstance(out, WeylWitness)
    assert out.stage == 4
    ctx = pres.ctx
    Q3 = matrix_from_upper(
        ctx,
        3,
        {(0, 1): parse_unit("q", ctx), (0, 2): parse_unit("p", ctx), (1, 2): parse_unit("r", ctx)},
    )
    E = lambda s: parse_element(s, ctx, Q3, ("x1", "x2", "x3"))
    # u is the coefficient of the adjoined variable: x3^-1 x2^-1 in normal form
    assert out.u.as_dict() == {1: E("x3^-1*x2^-1")}
    assert out.p.as_dict() == {0: E("x1")}
    # the certificate u p - p u = 1 was verified symbolically before emission
    one = TorusElement.one(ctx, 3)
    diff = out.u * out.p - out.p * out.u
    assert diff.as_dict() == {0: one}


def test_criterion_3_qmat3_full():
    """Nine stages of 3x3 quantum matrices in under ten seconds."""
    started = time.time()
    pres = load_presentation(f"{P}/qmat3.json")
    out = run_all(pres.ctx, pres.stages)
    assert isinstance(out, TorusEmbedding)
    state = out.state
    ctx = pres.ctx
    Q9 = state.Q
    E = lambda s: parse_element(s, ctx, Q9, state.names)

    # (i) stage 4 produces the 2x2 quantum determinant
    t4 = out.trace[3].t
    assert out.trace[3].canonical_name == "y22"
    assert t4.extend_to(9) == E("q*x12*x21")
    x22 = state.orig_expr[3]
    y22 = TorusElement.generator(ctx, 9, 3)
    x11 = TorusElement.generator(ctx, 9, 0)
    # y22 = x11 * x22 - q * x12 * x21 after substituting the x22 expression
    assert elem_mul(Q9, x11, x22) - E("q*x12*x21") == y22

    # (ii) stage 6: t = q * expr(x22) * x13, canonically q x11^-1 (y22 + q x12 x21) x13
    t6 = out.trace[5].t.extend_to(9)
    assert t6 == elem_mul(Q9, elem_mul(Q9, E("q"), x22), E("x13"))
    assert t6 == E("q*x11^-1*(y22 + q*x12*x21)*x13")

    # (iii) stage 8: t = q * expr(x22) * x31
    t8 = out.trace[7].t.extend_to(9)
    assert t8 == elem_mul(Q9, elem_mul(Q9, E("q"), x22), E("x31"))

    # (iv) stage 9: the five-term expression
    t9 = out.trace[8].t.extend_to(9)
    assert t9 == E(
        "q*x11^-1*y22*x13*x31"
        " + q*x12^-1*x21^-1*y22*x13*y32"
        " + x11^-1*x12^-1*x21^-1*y22^2*x13*x31"
        " + q*x12^-1*x21^-1*y22*y23*x31"
        " + q^2*x11*x12^-1*x21^-1*y23*y32"
    )

    # (v) final space: nine generators, the first four inverted
    assert state.n == 9
    assert state.inverted == frozenset({0, 1, 2, 3})
    assert state.names == (
        "x11", "x12", "x21", "y22", "x13", "y23", "x31", "y32", "y33",
    )

    # (vi) the last generator (the 3x3 quantum determinant) is central
    assert is_central(state.space, TorusElement.generator(ctx, 9, 8))

    assert time.time() - started < 10.0


def test_criterion_4_uqsl2_casimir():
    """Classification of the standard derivation and centrality of the Casimir."""
    ctx = ParameterContext(["q"])
    U = lambda s: parse_unit(s, ctx)
    S = lambda s: parse_scalar(s, ctx)
    Q = matrix_from_upper(ctx, 2, {(0, 1): U("q^2")})
    names = ("x1", "x2")
    E = lambda s: parse_element(s, ctx, Q, names)
    space = SelectiveSpace(Q, frozenset({0}))
    sig = ToricAutomorphism(ctx, (U("q^2"), U("1")))
    der = SkewDerivation(
        Q, sig, (E("0"), elem_scale(S("1/(q - q^-1)"), E("x1^-1 - x1")))
    )
    assert validate_derivation(der) is None

    comps = decompose_homogeneous(der)
    assert [c.weight for c in comps] == [(-1, -1), (1, -1)]
    reports = [classify_component(c, sig, space) for c in comps]
    assert all(r.kind == "locally_inner" and r.j == 1 for r in reports)
    # inducers proportional to x2^-1 x1^-1 and x2^-1 x1, with exact scalars
    assert reports[0].inducer == elem_scale(
        S("1/((q - q^-1)*(1 - q^2))"), E("x1^-1*x2^-1")
    )
    assert reports[1].inducer == elem_scale(
        S("-1/((q - q^-1)*(1 - q^-2))"), E("x1*x2^-1")
    )

    state = AlgebraState(
        SelectiveSpace(Q, {0}), names, (Original(0), Original(1)), names,
        (E("x1"), E("x2")),
    )
    extended, report = extend_by_ore(state, der, 3, "x3", "w3")
    assert isinstance(extended, SelectiveSpace)
    assert report.components == tuple(reports)
    # w = x2 x3 + (q - q^-1)^-2 (q x1^-1 + q^-1 x1): the subtracted part is -that
    assert report.t == elem_scale(
        S("-1/((q - q^-1)*(q - q^-1))"), E("q*x1^-1 + q^-1*x1")
    )
    w = TorusElement.generator(ctx, 3, 2)
    assert is_central(extended, w)


def test_criterion_5_quantum_disc_values():
    """Locally inner derivations of the localized disc, exact image values."""
    ctx = ParameterContext(["q"])
    U = lambda s: parse_unit(s, ctx)
    Q = matrix_from_upper(ctx, 2, {(0, 1): U("q")})
    names = ("x", "w")
    E = lambda s: parse_element(s, ctx, Q, names)
    tau = ToricAutomorphism(ctx, (U("q"), U("1")))
    y = E("(w + 1)*x^-1")
    for m in (1, 2, 3):
        der = inner_derivation(Q, tau, E(f"w^-1*x^{m}"))
        assert der.images[0].is_zero()
        assert der.images[1] == E(f"(q^{m} - 1)*x^{m}")
        assert extend_derivation(der, y) == E(f"(q^{m} - 1)*x^{m - 1}")


def test_criterion_6_commutative_case():
    """Polynomial algebra: one scaled variable gives locally inner components,
    two scaled variables leave no room for any nonzero exceptional component."""
    ctx = ParameterContext(["l", "m"])
    U = lambda s: parse_unit(s, ctx)
    Q = matrix_of_ones(ctx, 3)
    space = SelectiveSpace(Q, frozenset())
    one = FieldElement.one(ctx)
    zero = FieldElement.zero(ctx)

    sig = ToricAutomorphism(ctx, (U("1"), U("l"), U("1")))
    count = 0
    for d1 in range(0, 3):
        for d3 in range(0, 3):
            d = (d1, -1, d3)
            comp = HomogeneousComponent(d, (zero, one, zero))
            report = classify_component(comp, sig, space)
            assert report.kind == "locally_inner" and report.j == 1
            # induced by (1 - l)^-1 x^d
            assert report.inducer == TorusElement.monomial(
                ctx, 3, d, one / (one - FieldElement.parameter(ctx, "l"))
            )
            count += 1
    assert count == 9

    two_scaled = ToricAutomorphism(ctx, (U("m"), U("l"), U("1")))
    coeff_sets = {0: (one, zero, zero), 1: (zero, one, zero), 2: (zero, zero, one)}
    for j, coeffs in coeff_sets.items():
        for d_rest in product(range(0, 3), repeat=2):
            d = list(d_rest[:j]) + [-1] + list(d_rest[j:])
            comp = HomogeneousComponent(tuple(d), coeffs)
            with pytest.raises(Inconsistent):
                classify_component(comp, two_scaled, space)


# -- criterion 7: property batteries -------------------------------------------


def test_criterion_7_leibniz():
    rng = random.Random(101)
    for _ in range(N_CASES):
        n = rng.randint(1, 4)
        Q = random_matrix(rng, n)
        sig = random_auto(rng, n)
        der = random_inner_derivation(rng, Q, sig)
        u = random_element(rng, n, n_terms=2, bound=3)
        v = random_element(rng, n, n_terms=2, bound=3)
        lhs = extend_derivation(der, elem_mul(Q, u, v))
        rhs = elem_mul(Q, apply_auto(sig, u), extend_derivation(der, v)) + elem_mul(
            Q, extend_derivation(der, u), v
        )
        assert lhs == rhs


def test_criterion_7_monomial_mul_cocycle_and_oracle():
    from test_torus import bubble_oracle

    rng = random.Random(103)
    for _ in range(N_CASES):
        n = rng.randint(1, 4)
        Q = random_matrix(rng, n)
        a = tuple(rng.randint(-3, 3) for _ in range(n))
        b = tuple(rng.randint(-3, 3) for _ in range(n))
        c = tuple(rng.randint(-3, 3) for _ in range(n))
        assert monomial_mul(Q, a, b) == bubble_oracle(Q, a, b)
        s1, ab = monomial_mul(Q, a, b)
        s2, _ = monomial_mul(Q, ab, c)
        t1, bc = monomial_mul(Q, b, c)
        t2, _ = monomial_mul(Q, a, bc)
        assert s1 * s2 == t1 * t2


def test_criterion_7_qrs_identity():
    rng = random.Random(107)
    for _ in range(N_CASES):
        n = rng.randint(1, 4)
        Q = random_matrix(rng, n)
        d = tuple(rng.randint(-3, 3) for _ in range(n))
        j = rng.randrange(n)
        qj, rj, sj = qrs(Q, d, j)
        assert qj == rj * sj.inv()


def test_criterion_7_pairwise_coefficient_identity():
    rng = random.Random(109)
    cases = 0
    while cases < N_CASES:
        n = rng.randint(2, 4)
        Q = random_matrix(rng, n)
        sig = random_auto(rng, n)
        der = random_inner_derivation(rng, Q, sig)
        comps = decompose_homogeneous(der)
        if not comps:
            continue
        for comp in comps:
            d = comp.weight
            drops = []
            for j in range(n):
                _, rj, sj = qrs(Q, d, j)
                drops.append(
                    FieldElement.from_unit(rj)
                    - FieldElement.from_unit(sig.lambdas[j]) * FieldElement.from_unit(sj)
                )
            for i in range(n):
                for j in range(i + 1, n):
                    assert comp.coeffs[i] * drops[j] == comp.coeffs[j] * drops[i]
            cases += 1


def test_criterion_7_inner_formula():
    rng = random.Random(113)
    for _ in range(N_CASES):
        n = rng.randint(1, 4)
        Q = random_matrix(rng, n)
        sig = random_auto(rng, n)
        d = tuple(rng.randint(-3, 3) for _ in range(n))
        der = inner_derivation(Q, sig, TorusElement.monomial(RCTX, n, d))
        for j in range(n):
            _, rj, sj = qrs(Q, d, j)
            drop = FieldElement.from_unit(rj) - FieldElement.from_unit(
                sig.lambdas[j]
            ) * FieldElement.from_unit(sj)
            e = list(d)
            e[j] += 1
            assert der.images[j] == TorusElement(RCTX, n, {tuple(e): drop})


def test_criterion_7_classification_round_trip():
    rng = random.Random(127)
    cases = 0
    while cases < N_CASES:
        n = rng.randint(1, 4)
        Q = random_matrix(rng, n)
        sig = random_auto(rng, n)
        torus = SelectiveSpace(Q, frozenset(range(n)))
        der = random_inner_derivation(rng, Q, sig)
        comps = decompose_homogeneous(der)
        if not comps:
            continue
        for comp in comps:
            report = classify_component(comp, sig, torus)
            if report.kind != "outer_conjugate":
                back = inner_derivation(Q, sig, report.inducer)
                for j in range(n):
                    assert back.images[j] == component_image(comp, RCTX, j)
                cases += 1
