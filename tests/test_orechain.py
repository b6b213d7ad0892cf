"""Stage mechanics, eigenvalue bookkeeping, witnesses, and full runs."""

import json
import random

import pytest

from skewtor import (
    CommutationMatrix,
    FieldElement,
    InputError,
    NonEigenvector,
    NotADerivation,
    NotNormal,
    OreElement,
    ParameterContext,
    SelectiveSpace,
    SkewDerivation,
    StageSpec,
    ToricAutomorphism,
    TorusElement,
    TorusEmbedding,
    UnitMonomial,
    WeylWitness,
    apply_auto,
    elem_mul,
    elem_scale,
    extend_by_ore,
    is_central,
    membership,
    run_all,
    validate_derivation,
    verify_normal,
)
from skewtor.orechain import (
    Derived,
    _eval_in_state,
    canonical_eigenvalues,
    empty_state,
    run_stage,
    translate_derivation,
)
from skewtor.presentation import (
    load_presentation,
    parse_element,
    parse_scalar,
    parse_unit,
)
from skewtor.report import build_report, to_json
from skewtor.torus import indicator

from helpers import random_auto, random_element, random_matrix

P = "presentations"


def load_and_run(name):
    pres = load_presentation(f"{P}/{name}")
    return pres, run_all(pres.ctx, pres.stages)


# -- Ore element arithmetic ----------------------------------------------------


def make_delta(ctx, Q, lambdas, images):
    sig = ToricAutomorphism(ctx, lambdas)
    der = SkewDerivation(Q, sig, images)
    assert validate_derivation(der) is None
    return der


def test_ore_relation():
    ctx = ParameterContext(["q"])
    Q = CommutationMatrix.single_parameter(ctx, "q", 2)
    names = ("x", "y")
    E = lambda s: parse_element(s, ctx, Q, names)
    der = make_delta(ctx, Q, (parse_unit("q", ctx), parse_unit("q^-1", ctx)), (E("0"), E("1")))
    z = OreElement.variable(der)
    x = OreElement.from_torus(der, E("x"))
    y = OreElement.from_torus(der, E("y"))
    # z y = q^-1 y z + 1
    assert (z * y).as_dict() == {1: E("q^-1*y"), 0: E("1")}
    # associativity spot check
    assert (z * (x * y)) == ((z * x) * y)


# -- the Ore product as a reference for the certificates ------------------------


def assert_weyl_pair(out):
    """Re-check u*p - p*u = 1 with the general Ore product."""
    u, p = out.u, out.p
    one = OreElement.from_torus(u.delta, TorusElement.one(u.delta.ctx, u.delta.n))
    assert u * p - p * u == one


def reference_normal_table(state, der, J, t):
    """The normality table of v = y z - t, computed in the Ore extension.

    Each scalar is read off the leading z coefficients and then required to
    relate the whole products; the z entry is None when it does not.
    """
    n = state.n
    y = TorusElement.monomial(state.ctx, n, indicator(n, J))
    v = OreElement.make(der, {1: y, 0: -t})

    def scalar(g, top):
        lhs, rhs = v * g, g * v
        (_, a), (_, b) = (
            lhs.as_dict()[top].single_term(), rhs.as_dict()[top].single_term()
        )
        c = a / b
        return c.as_unit() if lhs == rhs.scale(c) else None

    table = [
        (name, scalar(OreElement.from_torus(der, state.generator(l)), 1))
        for l, name in enumerate(state.names)
    ]
    table.append(("z", scalar(OreElement.variable(der), 2)))
    return tuple(table)


def test_verify_normal_matches_the_ore_product_on_qmat3():
    pres = load_presentation(f"{P}/qmat3.json")
    state = empty_state(pres.ctx)
    checked = 0
    for no, stage in enumerate(pres.stages, start=1):
        if state.n:
            der, _ = translate_derivation(state, stage)
            ext = None if der.is_zero() else extend_by_ore(state, der)
            if ext is not None:
                table = verify_normal(state, der, ext.J, ext.t)
                assert table == ext.normal_table
                assert table == reference_normal_table(state, der, ext.J, ext.t), no
                checked += 1
        state, _ = run_stage(state, stage, no)
    assert checked == 4  # the stages adjoining x22, x23, x32 and x33


def test_verify_normal_rejects_a_wrong_t():
    ctx = ParameterContext(["q"])
    U = lambda s: parse_unit(s, ctx)
    Q = CommutationMatrix.from_upper(ctx, 2, {(0, 1): U("q^2")})
    names = ("K", "E")
    E_ = lambda s: parse_element(s, ctx, Q, names)
    sig = ToricAutomorphism(ctx, (U("q^2"), U("1")))
    c = parse_scalar("1/(q - q^-1)", ctx)
    der = SkewDerivation(Q, sig, (E_("0"), elem_scale(c, E_("K^-1 - K"))))
    assert validate_derivation(der) is None

    from skewtor.orechain import AlgebraState, Original

    state = AlgebraState(
        ctx, Q, frozenset({0}), names, (Original(0), Original(1)), names,
        (E_("K"), E_("E")),
    )
    ext = extend_by_ore(state, der)
    with pytest.raises(NotNormal) as exc:
        verify_normal(state, der, ext.J, ext.t + E_("K"))
    # K commutes with the extra term; E does not
    assert exc.value.generator == "E" and "'E'" in str(exc.value)
    assert isinstance(exc.value.residual, TorusElement)
    assert not exc.value.residual.is_zero()


# -- single stages -------------------------------------------------------------


def test_first_stage_trivial():
    pres, out = load_and_run("weyl_a1.json")
    assert isinstance(out, WeylWitness)


def test_weyl_witness_constant_image():
    # K[x1][x2; id, d/dx1]: witness u = x2-variable itself, p = x1
    pres = load_presentation(f"{P}/weyl_a1.json")
    out = run_all(pres.ctx, pres.stages)
    assert isinstance(out, WeylWitness)
    assert out.stage == 2
    assert out.weight == (-1,)
    assert out.certified
    one = TorusElement.one(pres.ctx, 1)
    assert out.u.as_dict() == {1: one}
    assert out.p.as_dict() == {0: TorusElement.generator(pres.ctx, 1, 0)}
    assert_weyl_pair(out)


def test_weyl_witness_scaling_derivation():
    # sigma = id, delta(x1) = x1 on K[x1]: u = x1^-1 z, p = x1
    ctx = ParameterContext(["q"])
    stages = (
        StageSpec("x1", (), ()),
        StageSpec("x2", (parse_unit("1", ctx),), (json_expr("x1"),)),
    )
    out = run_all(ctx, stages)
    assert isinstance(out, WeylWitness)
    assert out.weight == (0,)
    assert out.u.as_dict() == {1: TorusElement.generator(ctx, 1, 0, -1)}
    assert out.certified
    assert_weyl_pair(out)


def test_weyl_witness_with_inner_shift():
    # quantum plane, sigma = id, delta = (x1 -> x1, x2 -> 0) + ad_x1: the
    # shift x1 removes the inner part, so u = x1^-1 (z - x1) = x1^-1 z - 1
    ctx = ParameterContext(["q"])
    stages = (
        StageSpec("x1", (), ()),
        StageSpec("x2", (parse_unit("q", ctx),), ()),
        StageSpec(
            "z",
            (parse_unit("1", ctx), parse_unit("1", ctx)),
            (json_expr("x1"), json_expr("x1*x2 - x2*x1")),
        ),
    )
    out = run_all(ctx, stages)
    assert isinstance(out, WeylWitness)
    assert out.weight == (0, 0)
    assert out.u.as_dict() == {
        1: TorusElement.generator(ctx, 2, 0, -1),
        0: -TorusElement.one(ctx, 2),
    }
    assert_weyl_pair(out)


def json_expr(text):
    from skewtor.exprs import parse_ast

    return parse_ast(text)


def test_stage_with_zero_delta_appends_row():
    ctx = ParameterContext(["q"])
    stages = (
        StageSpec("a", (), ()),
        StageSpec("b", (parse_unit("q^-1", ctx),), ()),
    )
    out = run_all(ctx, stages)
    assert isinstance(out, TorusEmbedding)
    state = out.state
    assert state.names == ("a", "b")
    assert state.inverted == frozenset()
    assert state.Q.entry(1, 0) == parse_unit("q^-1", ctx)


def test_bad_delta_rejected():
    ctx = ParameterContext(["q"])
    # sigma trivial but delta(a) = b is incompatible with a b = q b a
    stages = (
        StageSpec("a", (), ()),
        StageSpec("b", (parse_unit("q^-1", ctx),), ()),
        StageSpec(
            "c",
            (parse_unit("1", ctx), parse_unit("1", ctx)),
            (json_expr("b"), None),
        ),
    )
    with pytest.raises(NotADerivation) as exc:
        run_all(ctx, stages)
    assert exc.value.pair == (0, 1)


# -- eigenvalue bookkeeping ----------------------------------------------------


def test_eigenvalue_of_derived_generator():
    pres, out = load_and_run("qmat3.json")
    state = out.state
    ctx = pres.ctx
    U = lambda s: parse_unit(s, ctx)
    # sigma_5 on the originals (x11, x12, x21, x22)
    taueigs = (U("q^-1"), U("q^-1"), U("1"), U("1"))
    # need the state as it was after stage 4: rebuild from a fresh run
    pres4 = load_presentation(f"{P}/qmat3.json")
    out4 = run_all(ctx, pres4.stages[:4])
    eigs = canonical_eigenvalues(out4.state, taueigs)
    assert eigs == (U("q^-1"), U("q^-1"), U("1"), U("q^-1"))


def test_non_eigenvector_rejected():
    ctx = ParameterContext(["q"])
    U = lambda s: parse_unit(s, ctx)
    stages = [
        StageSpec("x1", (), ()),
        StageSpec("x2", (U("q^-1"),), ()),
        StageSpec(
            "x3",
            (U("1"), U("q^-1")),
            (json_expr("(q^-1 - q)*x2^2"), None),
            rename="w",
        ),
    ]
    out = run_all(ctx, tuple(stages))
    assert isinstance(out, TorusEmbedding)
    # now a fourth stage whose eigenvalues make w's defining element t = q x2^2
    # a non-eigenvector: sigma(x1) free, sigma(x2) = 1 forces sigma(w) = rho_1,
    # but t needs rho_2^2
    # sigma(w) would be rho_1 * 1 = q but t = q x2^2 scales by rho_2^2 = q^2
    bad = stages + [
        StageSpec("x4", (U("q"), U("q"), U("1")), ()),
    ]
    with pytest.raises(NonEigenvector):
        run_all(ctx, tuple(bad))


# -- the 2x2 multiparameter case ------------------------------------------------


def test_case_a_embedding():
    pres, out = load_and_run("qmat2x2_caseA.json")
    assert isinstance(out, TorusEmbedding)
    state = out.state
    ctx = pres.ctx
    U = lambda s: parse_unit(s, ctx)
    assert state.inverted == frozenset({0})
    assert state.names == ("x1", "x2", "x3", "d")
    # new generator d = x1 x4 - q x2 x3
    prov = state.provenance[3]
    assert isinstance(prov, Derived)
    assert prov.J == (0,)
    E = lambda s: parse_element(s, ctx, state.Q, state.names)
    assert prov.t == E("q*x2*x3")
    # appended commutation row
    row = tuple(state.Q.entry(3, l) for l in range(3))
    assert row == (U("l1"), U("r^-1"), U("r"))
    # certified normality table, z entry included
    rep = out.trace[3]
    table = dict(rep.normal_table)
    assert table["x1"] == U("l1")
    assert table["x2"] == U("r^-1")
    assert table["x3"] == U("r")
    assert table["z"] == U("l1^-1")


def test_case_b_witness():
    pres, out = load_and_run("qmat2x2_caseB.json")
    assert isinstance(out, WeylWitness)
    assert out.stage == 4 and out.weight == (-1, 1, 1)
    assert out.certified
    assert_weyl_pair(out)
    ctx = pres.ctx
    Q3 = CommutationMatrix.from_upper(
        ctx,
        3,
        {
            (0, 1): parse_unit("q", ctx),
            (0, 2): parse_unit("p", ctx),
            (1, 2): parse_unit("r", ctx),
        },
    )
    E = lambda s: parse_element(s, ctx, Q3, ("x1", "x2", "x3"))
    # u = (x2 x3)^-1 z, normal ordered: r^-1 x2^-1 x3^-1 z; p = x1
    assert out.u.as_dict() == {1: E("r^-1*x2^-1*x3^-1")}
    assert out.p.as_dict() == {0: E("x1")}
    # the same element the word x3^-1 x2^-1 x4 denotes
    assert E("x3^-1*x2^-1") == E("r^-1*x2^-1*x3^-1")


# -- the 3x3 run ----------------------------------------------------------------


EXPECTED_Q9 = [
    ["1", "q", "q", "1", "q", "q", "q", "q", "1"],
    ["q^-1", "1", "1", "1", "q", "1", "1", "q", "1"],
    ["q^-1", "1", "1", "1", "1", "q", "q", "1", "1"],
    ["1", "1", "1", "1", "q", "q", "q", "q", "1"],
    ["q^-1", "q^-1", "1", "q^-1", "1", "1", "1", "1", "1"],
    ["q^-1", "1", "q^-1", "q^-1", "1", "1", "1", "1", "1"],
    ["q^-1", "1", "q^-1", "q^-1", "1", "1", "1", "1", "1"],
    ["q^-1", "q^-1", "1", "q^-1", "1", "1", "1", "1", "1"],
    ["1", "1", "1", "1", "1", "1", "1", "1", "1"],
]


def test_qmat3_full_run():
    pres, out = load_and_run("qmat3.json")
    assert isinstance(out, TorusEmbedding)
    state = out.state
    ctx = pres.ctx
    assert state.names == (
        "x11", "x12", "x21", "y22", "x13", "y23", "x31", "y32", "y33",
    )
    assert state.inverted == frozenset({0, 1, 2, 3})
    for i in range(9):
        for j in range(9):
            assert state.Q.entry(i, j) == parse_unit(EXPECTED_Q9[i][j], ctx), (i, j)
    # y33 is central
    assert is_central(state.space, TorusElement.generator(ctx, 9, 8))


def test_qmat3_stage_values():
    pres, out = load_and_run("qmat3.json")
    state = out.state
    ctx = pres.ctx
    E = lambda s: parse_element(s, ctx, state.Q, state.names)
    trace = out.trace

    t4 = trace[3].t.extend_to(9)
    assert t4 == E("q*x12*x21")

    # stage 6: t = q * (expression of x22) * x13
    t6 = trace[5].t.extend_to(9)
    x22_expr = state.orig_expr[3]
    x13 = E("x13")
    assert t6 == elem_mul(state.Q, elem_mul(state.Q, E("q"), x22_expr), x13)
    assert t6 == E("q*x11^-1*(y22 + q*x12*x21)*x13")

    # stage 8: t = q * (expression of x22) * x31
    t8 = trace[7].t.extend_to(9)
    assert t8 == elem_mul(state.Q, elem_mul(state.Q, E("q"), x22_expr), E("x31"))

    # stage 9: the five-term expression
    t9 = trace[8].t.extend_to(9)
    expected = E(
        "q*x11^-1*y22*x13*x31"
        " + q*x12^-1*x21^-1*y22*x13*y32"
        " + x11^-1*x12^-1*x21^-1*y22^2*x13*x31"
        " + q*x12^-1*x21^-1*y22*y23*x31"
        " + q^2*x11*x12^-1*x21^-1*y23*y32"
    )
    assert t9 == expected


def test_qmat3_stage6_translated_images():
    pres = load_presentation(f"{P}/qmat3.json")
    out5 = run_all(pres.ctx, pres.stages[:5])
    state5 = out5.state
    from skewtor.orechain import translate_derivation

    der, sigma = translate_derivation(state5, pres.stages[5])
    lam = [render for render in sigma.lambdas]
    U = lambda s: parse_unit(s, pres.ctx)
    assert tuple(lam) == (U("1"), U("1"), U("q^-1"), U("q^-1"), U("q^-1"))
    E = lambda s: parse_element(s, pres.ctx, state5.Q, state5.names)
    assert der.images[0] == E("(q^-1 - q)*x21*x13")
    # the image of x12 contains the term (q^-1 - q) x11^-1 y22 x13
    target = E("(q^-1 - q)*x11^-1*y22*x13")
    (e, c) = next(iter(target.terms.items()))
    assert der.images[1].coefficient(e) == c
    # the stage inducer lies in the stage-5 space localized additionally at x12
    inducer = E("x12^-1*q*x11^-1*(y22 + q*x12*x21)*x13")
    bigger = SelectiveSpace(state5.Q, state5.inverted | {1})
    assert membership(bigger, inducer)
    assert not membership(state5.space, inducer)


def test_qmat3_embedding_respects_original_relations():
    # substituting the stored expressions for the original generators into
    # the defining relations of quantum 3x3 matrices must give identities
    pres, out = load_and_run("qmat3.json")
    state = out.state
    ctx = pres.ctx
    Q = state.Q
    q = FieldElement.parameter(ctx, "q")
    expr = {name: state.orig_expr[k] for k, name in enumerate(state.orig_names)}

    def pos(name):
        return int(name[1]), int(name[2])

    names = list(state.orig_names)
    for a in range(len(names)):
        for b in range(a + 1, len(names)):
            (i, j), (l, m) = pos(names[a]), pos(names[b])
            xa, xb = expr[names[a]], expr[names[b]]
            ab = elem_mul(Q, xa, xb)
            ba = elem_mul(Q, xb, xa)
            if i == l or j == m:
                # same row or column: x_a x_b = q x_b x_a
                assert ab == elem_scale(q, ba)
            elif i < l and j < m:
                # northwest pair: [x_a, x_b] = (q - q^-1) x_im x_lj
                mixed = elem_mul(Q, expr[f"x{i}{m}"], expr[f"x{l}{j}"])
                assert ab - ba == elem_scale(q - q.inv(), mixed)
            else:
                assert ab == ba


def test_qmat3_determinism():
    pres = load_presentation(f"{P}/qmat3.json")
    out1 = run_all(pres.ctx, pres.stages)
    out2 = run_all(pres.ctx, pres.stages)
    rep1 = to_json(build_report(out1, pres.ctx))
    rep2 = to_json(build_report(out2, pres.ctx))
    assert rep1 == rep2


def test_eigenvalue_identity_on_deleted_parts():
    # for every localized stage, sigma and the normalizing map of y agree on t
    pres, out = load_and_run("qmat3.json")
    for rep in out.trace:
        if not rep.J or rep.t is None:
            continue
        n = len(rep.lambdas)
        sig = ToricAutomorphism(pres.ctx, rep.lambdas)
        pres_state = None  # eigenvalues recomputable from the report alone
        for e, _ in rep.t:
            lam = sig.eigenvalue(e)
            # normalizing eigenvalue of x^e under conjugation by prod_{j in J} x_j
            phi = UnitMonomial.one(pres.ctx)
            Qi = out.state.Q
            for j in rep.J:
                for l, k in enumerate(e):
                    if k:
                        phi = phi * Qi.entry(l, j).pow(k)
            assert lam == phi


def test_non_localized_generators_stay_normal():
    # with the inner part folded away, x_i (i not in J, not inverted) is
    # normal in the one-variable extension
    pres = load_presentation(f"{P}/qmat3.json")
    ctx = pres.ctx
    out5 = run_all(ctx, pres.stages[:5])
    state5 = out5.state
    from skewtor.orechain import translate_derivation

    der, sigma = translate_derivation(state5, pres.stages[5])
    # inner part at stage 6 is induced by q x11^-1 x21 x13
    a = parse_element("q*x11^-1*x21*x13", ctx, state5.Q, state5.names)
    zshift = OreElement.make(der, {1: TorusElement.one(ctx, 5), 0: -a})
    for i in (2, 3, 4):  # x21, y22, x13: not inverted, not in J = {x12}
        xi = OreElement.from_torus(der, state5.generator(i))
        lam = FieldElement.from_unit(sigma.lambdas[i])
        assert xi * zshift == (zshift * xi).scale(lam.inv())


def test_commutative_locally_inner_run():
    pres, out = load_and_run("commutative_locally_inner.json")
    assert isinstance(out, TorusEmbedding)
    state = out.state
    ctx = pres.ctx
    assert state.inverted == frozenset({1})
    E = lambda s: parse_element(s, ctx, state.Q, state.names)
    prov = state.provenance[3]
    assert prov.J == (1,)
    # t = (1 - l)^-1 x1 x3
    assert prov.t == elem_scale(parse_scalar("1/(1 - l)", ctx), E("x1*x3"))


def test_unprocessed_stages_reported():
    ctx = ParameterContext([])
    stages = (
        StageSpec("x1", (), ()),
        StageSpec("x2", (parse_unit("1", ctx),), (json_expr("1"),)),
        StageSpec("x3", (parse_unit("1", ctx), parse_unit("1", ctx)), ()),
    )
    out = run_all(ctx, stages)
    assert isinstance(out, WeylWitness)
    assert out.unprocessed == ("x3",)
    assert_weyl_pair(out)


# -- verify_normal as a standalone check ----------------------------------------


def test_verify_normal_uqsl2_casimir():
    ctx = ParameterContext(["q"])
    U = lambda s: parse_unit(s, ctx)
    Q = CommutationMatrix.from_upper(ctx, 2, {(0, 1): U("q^2")})
    names = ("K", "E")
    E_ = lambda s: parse_element(s, ctx, Q, names)
    sig = ToricAutomorphism(ctx, (U("q^2"), U("1")))
    c = parse_scalar("1/(q - q^-1)", ctx)
    der = SkewDerivation(Q, sig, (E_("0"), elem_scale(c, E_("K^-1 - K"))))
    assert validate_derivation(der) is None

    from skewtor.orechain import AlgebraState, Original

    state = AlgebraState(
        ctx,
        Q,
        frozenset({0}),
        names,
        (Original(0), Original(1)),
        names,
        (E_("K"), E_("E")),
    )
    ext = extend_by_ore(state, der)
    assert not isinstance(ext, tuple)
    assert ext.J == (1,)
    # t = -(q - q^-1)^-2 (q K^-1 + q^-1 K), so w = E F + (q-q^-1)^-2 (q K^-1 + q^-1 K)
    minus = elem_scale(
        parse_scalar("-1/((q - q^-1)*(q - q^-1))", ctx), E_("q*K^-1 + q^-1*K")
    )
    assert ext.t == minus
    # every certified scalar equals 1: the new generator is central
    one = UnitMonomial.one(ctx)
    assert all(s == one for _, s in ext.normal_table)
    assert ext.new_row == (one, one)
    space3 = SelectiveSpace(ext.space.Q, ext.space.inverted)
    assert is_central(space3, TorusElement.generator(ctx, 3, 2))


def test_eigenvalue_of_generator_direct():
    pres = load_presentation(f"{P}/qmat3.json")
    out4 = run_all(pres.ctx, pres.stages[:4])
    U = lambda s: parse_unit(s, pres.ctx)
    taueigs = (U("q^-1"), U("q^-1"), U("1"), U("1"))
    eigs = canonical_eigenvalues(out4.state, taueigs)
    assert eigs[3] == U("q^-1")
    assert eigs[0] == U("q^-1")


def test_run_all_empty_stages():
    with pytest.raises(InputError, match="empty stages list"):
        run_all(ParameterContext([]), ())


def test_qmat3_stage_lambdas_match_known_values():
    pres, out = load_and_run("qmat3.json")
    U = lambda s: parse_unit(s, pres.ctx)
    want = {
        5: ("q^-1", "q^-1", "1", "q^-1"),
        6: ("1", "1", "q^-1", "q^-1", "q^-1"),
        7: ("q^-1", "1", "q^-1", "q^-1", "1", "1"),
        8: ("1", "q^-1", "1", "q^-1", "1", "q^-1", "q^-1"),
        9: ("1", "1", "1", "1", "q^-1", "q^-1", "q^-1", "q^-1"),
    }
    for stage_no, lams in want.items():
        got = out.trace[stage_no - 1].lambdas
        assert got == tuple(U(s) for s in lams), stage_no


def test_qmat3_stage6_component_weights():
    pres, out = load_and_run("qmat3.json")
    comps = out.trace[5].components
    assert [c.weight for c in comps] == [(-1, -1, 0, 1, 1), (-1, 0, 1, 0, 1)]
    kinds = {c.weight: c.kind for c in comps}
    assert kinds[(-1, -1, 0, 1, 1)] == "locally_inner"
    assert kinds[(-1, 0, 1, 0, 1)] == "inner"


def test_qmat3_stage9_y22_component():
    pres = load_presentation(f"{P}/qmat3.json")
    out8 = run_all(pres.ctx, pres.stages[:8])
    state8 = out8.state
    from skewtor.orechain import translate_derivation

    der, sigma = translate_derivation(state8, pres.stages[8])
    E = lambda s: parse_element(s, pres.ctx, state8.Q, state8.names)
    # the component of weight (1,-1,-1,-1,0,1,0,1) acts on y22 by
    # (1 - q^2) x11 x12^-1 x21^-1 y23 y32 and is locally inner at y22
    target = E("(1 - q^2)*x11*x12^-1*x21^-1*y23*y32")
    (e, c) = next(iter(target.terms.items()))
    assert der.images[3].coefficient(e) == c
    from skewtor import decompose_homogeneous, classify_component, LocallyInner

    comps = {comp.weight: comp for comp in decompose_homogeneous(der)}
    comp = comps[(1, -1, -1, -1, 0, 1, 0, 1)]
    cls = classify_component(comp, sigma, state8.space)
    assert isinstance(cls, LocallyInner) and cls.j == 3
    assert cls.inducer == E("q^2*x11*x12^-1*x21^-1*y22^-1*y23*y32")


def test_verify_normal_zero_delta_table_is_eigenvalue_row():
    ctx = ParameterContext(["q"])
    U = lambda s: parse_unit(s, ctx)
    Q = CommutationMatrix.single_parameter(ctx, "q", 2)
    names = ("x", "y")
    sig = ToricAutomorphism(ctx, (U("q"), U("q^-1")))
    from skewtor import zero_derivation

    der = zero_derivation(Q, sig)
    from skewtor.orechain import AlgebraState, Original

    E = lambda s: parse_element(s, ctx, Q, names)
    state = AlgebraState(
        ctx, Q, frozenset(), names, (Original(0), Original(1)), names,
        (E("x"), E("y")),
    )
    table = verify_normal(state, der, (), TorusElement.zero(ctx, 2))
    assert table == (
        ("x", U("q")),
        ("y", U("q^-1")),
        ("z", UnitMonomial.one(ctx)),
    )


def test_run_all_single_stage():
    ctx = ParameterContext(["q"])
    out = run_all(ctx, (StageSpec("x1", (), ()),))
    assert isinstance(out, TorusEmbedding)
    assert out.state.names == ("x1",)
    assert out.state.inverted == frozenset()


def test_stage_context_in_errors():
    ctx = ParameterContext(["q"])
    stages = (
        StageSpec("a", (), ()),
        StageSpec("b", (parse_unit("q^-1", ctx),), ()),
        StageSpec(
            "c",
            (parse_unit("1", ctx), parse_unit("1", ctx)),
            (json_expr("b"), None),
        ),
    )
    with pytest.raises(NotADerivation) as exc:
        run_all(ctx, stages)
    assert "stage 3" in str(exc.value) and "'c'" in str(exc.value)
    assert exc.value.pair == (0, 1)


def test_pure_inner_stage_no_localization():
    # delta inner by a = x*y with sigma(a) = a: v = z - a, no inversion,
    # z commutes with v
    ctx = ParameterContext(["q"])
    U = lambda s: parse_unit(s, ctx)
    stages = (
        StageSpec("x", (), ()),
        StageSpec("y", (U("q^-1"),), ()),
        StageSpec(
            "z3",
            (U("q"), U("q^-1")),
            (json_expr("(1 - q^2)*x^2*y"), json_expr("(q - q^-1)*x*y^2")),
            rename="v",
        ),
    )
    out = run_all(ctx, stages)
    assert isinstance(out, TorusEmbedding)
    state = out.state
    assert state.inverted == frozenset()
    rep = out.trace[2]
    assert rep.J == ()
    E = lambda s: parse_element(s, ctx, state.Q, state.names)
    # the inner inducer is a = q x y (drop for x: r - lambda s = q^-1 - q...)
    assert rep.t.extend_to(3) == E("q*x*y")
    # sigma(a) = q * q^-1 * a = a, so the adjoined variable itself gets scalar 1
    table = dict(rep.normal_table)
    assert table["z"] == UnitMonomial.one(ctx)
    # original z3 = v + t
    assert state.orig_expr[2] == E("v + q*x*y")


def test_pure_inner_stage_without_z_scalar():
    # sigma(a) != a: v is normal but no single scalar relates v z and z v
    ctx = ParameterContext(["q", "l1", "p"])
    U = lambda s: parse_unit(s, ctx)
    drop = "(q^-1 - l1)"  # r_1(d) - lambda_1 s_1(d) for d = (1, 1)
    stages = (
        StageSpec("x", (), ()),
        StageSpec("y", (U("q^-1"),), ()),
        StageSpec(
            "w3",
            (U("l1"), U("p")),
            (json_expr(f"{drop}*x^2*y"), json_expr("(1 - p*q^-1)*x*y^2")),
            rename="v",
        ),
    )
    out = run_all(ctx, stages)
    assert isinstance(out, TorusEmbedding)
    rep = out.trace[2]
    assert rep.J == ()
    state = out.state
    E = lambda s: parse_element(s, ctx, state.Q, state.names)
    assert rep.t.extend_to(3) == E("x*y")
    table = dict(rep.normal_table)
    assert table["x"] == U("l1") and table["y"] == U("p")
    assert table["z"] is None
