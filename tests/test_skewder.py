"""Automorphisms, derivations, homogeneous decomposition, classification."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewtor import (
    FieldElement,
    HomogeneousComponent,
    Inconsistent,
    NotADerivation,
    NotValidated,
    ParameterContext,
    SelectiveSpace,
    SkewDerivation,
    ToricAutomorphism,
    TorusElement,
    UnitMonomial,
    apply_auto,
    classify_component,
    decompose_homogeneous,
    elem_mul,
    elem_scale,
    extend_derivation,
    is_central,
    qrs,
    validate_derivation,
)
from skewtor.presentation import parse_element, parse_scalar, parse_unit
from skewtor.render import render_element, render_scalar
from skewtor.skewder import _check_compat

from helpers import (
    CTX,
    U,
    UNIT_POOL,
    component_image,
    identity_automorphism,
    inner_derivation,
    is_q_skew,
    leibniz_oracle,
    matrix_from_upper,
    matrix_of_ones,
    outer_derivation,
    pairwise_compat,
    random_auto,
    random_element,
    random_inner_derivation,
    random_matrix,
    sigma_made_inner,
    single_parameter,
    validation_oracle,
    zero_derivation,
)

QPLANE = single_parameter(CTX, "q", 2)
NAMES2 = ("x", "y")


def S(text):
    return parse_scalar(text, CTX)


def E(text, Q=QPLANE, names=NAMES2):
    return parse_element(text, CTX, Q, names)


# -- apply_auto ---------------------------------------------------------------


def test_apply_auto_examples():
    sig = ToricAutomorphism(CTX, (U("q"), U("q^-1")))
    xy = E("x*y")
    assert apply_auto(sig, xy) == xy  # scalar q * q^-1 = 1

    uq = ToricAutomorphism(CTX, (U("q^2"), U("1")))
    assert apply_auto(uq, E("x")) == E("q^2*x")
    assert apply_auto(uq, E("y")) == E("y")

    sig2 = ToricAutomorphism(CTX, (U("q"), U("q")))
    assert apply_auto(sig2, E("x^2*y^-1")) == E("q*x^2*y^-1")


def test_apply_auto_multiplicative():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(1, 4)
        Q = random_matrix(rng, n)
        sig = random_auto(rng, n)
        u = random_element(rng, n)
        v = random_element(rng, n)
        assert apply_auto(sig, elem_mul(Q, u, v)) == elem_mul(
            Q, apply_auto(sig, u), apply_auto(sig, v)
        )


# -- inner derivations --------------------------------------------------------


def test_inner_derivation_zero_when_eigenvalues_match():
    # induced by x^d with q_j(d) = lambda_j for all j
    d = (2, 1)
    sig = sigma_made_inner(random.Random(0), QPLANE, d)
    der = inner_derivation(QPLANE, sig, E("x^2*y"))
    assert der.is_zero()


def test_inner_derivation_quantum_disc_value():
    # one generator, sigma(y) = q y, inducer y^-1: delta(y) = 1 - q
    Q1 = matrix_of_ones(CTX, 1)
    sig = ToricAutomorphism(CTX, (U("q"),))
    der = inner_derivation(Q1, sig, TorusElement.generator(CTX, 1, 0, -1))
    assert der.images[0] == parse_element("1 - q", CTX, Q1, ("y",))


def test_inner_derivation_case_a():
    Q3 = matrix_from_upper(
        CTX, 3, {(0, 1): U("q"), (0, 2): U("p"), (1, 2): U("r")}
    )
    names = ("x1", "x2", "x3")
    sig = ToricAutomorphism(CTX, (U("l1"), U("r^-1*q^-1"), U("r*p^-1")))
    a = parse_element("q*x1^-1*x2*x3", CTX, Q3, names)
    der = inner_derivation(Q3, sig, a)
    assert der.images[0] == parse_element("(p^-1 - l1*q)*x2*x3", CTX, Q3, names)
    assert der.images[1].is_zero() and der.images[2].is_zero()


def test_inner_formula_lemma_values():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(1, 4)
        Q = random_matrix(rng, n)
        sig = random_auto(rng, n)
        d = tuple(rng.randint(-3, 3) for _ in range(n))
        der = inner_derivation(Q, sig, TorusElement.monomial(CTX, n, d))
        for j in range(n):
            _, rj, sj = qrs(Q, d, j)
            drop = FieldElement.from_unit(rj) - FieldElement.from_unit(
                sig.lambdas[j]
            ) * FieldElement.from_unit(sj)
            e = list(d)
            e[j] += 1
            assert der.images[j] == TorusElement(CTX, n, {tuple(e): drop})


# -- extension ----------------------------------------------------------------


def test_extend_scalars_to_zero():
    sig = ToricAutomorphism(CTX, (U("q"), U("q^-1")))
    der = inner_derivation(QPLANE, sig, E("x*y"))
    assert extend_derivation(der, TorusElement.one(CTX, 2)).is_zero()
    assert extend_derivation(der, E("q^2 - 3")).is_zero()


def test_extend_requires_validation():
    images = (E("y"), E("0"))
    der = SkewDerivation(QPLANE, ToricAutomorphism(CTX, (U("l1"), U("q^-1"))), images)
    with pytest.raises(NotValidated):
        extend_derivation(der, E("x"))
    assert validate_derivation(der) is None
    extend_derivation(der, E("x"))


def test_extend_respects_defining_relation():
    # delta(x) = g(y), delta(y) = f(x) with sigma = (q, q^-1)
    sig = ToricAutomorphism(CTX, (U("q"), U("q^-1")))
    der = SkewDerivation(QPLANE, sig, (E("1 + y^2"), E("3*x")))
    assert validate_derivation(der) is None
    assert extend_derivation(der, E("x*y")) == extend_derivation(der, E("q*y*x"))


def test_extend_quantum_disc_localization_values():
    # generators x^(+-1), w with x w = q w x; tau = (q, 1)
    Q = matrix_from_upper(CTX, 2, {(0, 1): U("q")})
    names = ("x", "w")
    tau = ToricAutomorphism(CTX, (U("q"), U("1")))
    for m in (1, 2, 3):
        a = parse_element(f"w^-1*x^{m}", CTX, Q, names)
        der = inner_derivation(Q, tau, a)
        assert der.images[0].is_zero()
        assert der.images[1] == parse_element(f"(q^{m} - 1)*x^{m}", CTX, Q, names)
        y = parse_element("(w + 1)*x^-1", CTX, Q, names)
        dy = extend_derivation(der, y)
        assert dy == parse_element(f"(q^{m} - 1)*x^{m - 1}", CTX, Q, names)


def test_leibniz_property_random():
    rng = random.Random(29)
    for _ in range(80):
        n = rng.randint(1, 4)
        Q = random_matrix(rng, n)
        sig = random_auto(rng, n)
        der = random_inner_derivation(rng, Q, sig)
        u = random_element(rng, n)
        v = random_element(rng, n)
        lhs = extend_derivation(der, elem_mul(Q, u, v))
        rhs = elem_mul(Q, apply_auto(sig, u), extend_derivation(der, v)) + elem_mul(
            Q, extend_derivation(der, u), v
        )
        assert lhs == rhs


_COEFFS = ["1", "-2", "1/3", "q", "3*p^-1", "q + 1", "1/(q - p)", "(q - 1)/(p + 2)"]


def _exponents(n: int, bound: int):
    return st.tuples(*[st.integers(-bound, bound)] * n)


def _elements(n: int, bound: int):
    coeffs = st.sampled_from(_COEFFS).map(lambda text: parse_scalar(text, CTX))
    terms = st.dictionaries(_exponents(n, bound), coeffs, min_size=1, max_size=3)
    return terms.map(lambda t: TorusElement(CTX, n, t))


@st.composite
def _derivations(draw) -> SkewDerivation:
    """Valid derivations (inner, outer, or both) over a random matrix, and
    invalid ones marked trusted."""
    n = draw(st.integers(1, 4))
    units = st.sampled_from(UNIT_POOL).map(U)
    Q = matrix_from_upper(CTX, n, {(i, j): draw(units) for i in range(n) for j in range(i + 1, n)})
    kind = draw(st.sampled_from(["inner", "outer", "mixed", "invalid"]))
    if kind in ("inner", "invalid"):
        sig = ToricAutomorphism(CTX, tuple(draw(units) for _ in range(n)))
    else:
        d = draw(_exponents(n, 2))
        sig = sigma_made_inner(None, Q, d)
    if kind == "invalid":
        zero = st.just(TorusElement.zero(CTX, n))
        return SkewDerivation.trusted(Q, sig, [draw(_elements(n, 2) | zero) for _ in range(n)])
    images = [TorusElement.zero(CTX, n)] * n
    if kind != "outer":
        images = list(inner_derivation(Q, sig, draw(_elements(n, 2))).images)
    if kind != "inner":
        # sigma is conjugation by x^-d, so any x_j -> c x^(d + e_j) is a derivation
        for j in draw(st.sets(st.integers(0, n - 1), min_size=1)):
            e = tuple(k + (i == j) for i, k in enumerate(d))
            c = parse_scalar(draw(st.sampled_from(_COEFFS)), CTX)
            images[j] = images[j] + TorusElement.monomial(CTX, n, e, c)
    der = SkewDerivation(Q, sig, images)
    validate_derivation(der)
    return der


@settings(max_examples=200, deadline=None)
@given(_derivations(), st.data())
def test_closed_form_matches_the_leibniz_recursion(der, data):
    # negative exponents invert generators; powers reach 6 in either direction
    u = data.draw(_elements(der.n, 6))
    got = extend_derivation(der, u)
    want = leibniz_oracle(der, u)
    assert got == want
    names = tuple(f"x{i}" for i in range(der.n))
    assert render_element(got, names) == render_element(want, names)


# -- validation ---------------------------------------------------------------


def test_validate_zero_images():
    der = zero_derivation(QPLANE, random_auto(random.Random(1), 2))
    assert validate_derivation(der) is None


def test_validate_inner_always_ok():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(1, 4)
        Q = random_matrix(rng, n)
        der = random_inner_derivation(rng, Q, random_auto(rng, n))
        fresh = SkewDerivation(Q, der.sigma, der.images)
        assert validate_derivation(fresh) is None


def test_validate_violation_reported():
    sig = ToricAutomorphism(CTX, (U("1"), U("1")))
    der = SkewDerivation(QPLANE, sig, (E("y"), E("0")))
    with pytest.raises(NotADerivation) as exc:
        validate_derivation(der)
    violation = exc.value
    assert violation.pair == (0, 1)
    # both sides evaluated: they differ by the factor q on y^2
    assert violation.lhs == E("y^2")
    assert violation.rhs == E("q*y^2")
    assert not der._validated


@settings(max_examples=300, deadline=None)
@given(_derivations(), st.data())
def test_validation_matches_the_per_pair_oracle(der, data):
    # zeroing some images of a valid or invalid derivation mixes zero and
    # nonzero images, and makes many valid ones fail at some pair
    images = list(der.images)
    for j in data.draw(st.sets(st.integers(0, der.n - 1))):
        images[j] = TorusElement.zero(CTX, der.n)
    fresh = SkewDerivation(der.Q, der.sigma, images)
    want = validation_oracle(fresh)
    if want is None:
        assert validate_derivation(fresh) is None
        assert fresh._validated
        return
    with pytest.raises(NotADerivation) as exc:
        validate_derivation(fresh)
    got = exc.value
    assert (got.pair, got.lhs, got.rhs) == want
    names = tuple(f"x{i}" for i in range(der.n))
    assert render_element(got.lhs, names) == render_element(want[1], names)
    assert render_element(got.rhs, names) == render_element(want[2], names)
    assert not fresh._validated


# -- q-skew test --------------------------------------------------------------


def test_q_skew_zero_derivation():
    der = zero_derivation(QPLANE, random_auto(random.Random(2), 2))
    assert is_q_skew(der, U("q"))
    assert is_q_skew(der, U("p^7"))


def test_q_skew_linear_case():
    tau = ToricAutomorphism(CTX, (U("q"), U("q^-1")))
    der = SkewDerivation(QPLANE, tau, (E("0"), E("1 - q^-1")))
    assert validate_derivation(der) is None
    assert is_q_skew(der, U("q^-1"))
    assert not is_q_skew(der, U("q"))


def test_q_skew_cyclic_case_neither():
    tau = ToricAutomorphism(CTX, (U("q"), U("q^-1")))
    der = SkewDerivation(QPLANE, tau, (E("1 - q"), E("1 - q^-1")))
    assert validate_derivation(der) is None
    assert not is_q_skew(der, U("q"))
    assert not is_q_skew(der, U("q^-1"))


# -- decomposition ------------------------------------------------------------


def test_decompose_inner_monomial_single_weight():
    sig = ToricAutomorphism(CTX, (U("l1"), U("p")))
    der = inner_derivation(QPLANE, sig, E("x^2*y^-1"))
    comps = decompose_homogeneous(der)
    assert [c.weight for c in comps] == [(2, -1)]


def test_decompose_uqsl2_two_components():
    Q = matrix_from_upper(CTX, 2, {(0, 1): U("q^2")})
    sig = ToricAutomorphism(CTX, (U("q^2"), U("1")))
    c = S("1/(q - q^-1)")
    images = (
        TorusElement.zero(CTX, 2),
        elem_scale(c, E("x^-1 - x", Q)),
    )
    der = SkewDerivation(Q, sig, images)
    assert validate_derivation(der) is None
    comps = decompose_homogeneous(der)
    assert [c.weight for c in comps] == [(-1, -1), (1, -1)]


def test_decompose_reconstruction_round_trip():
    rng = random.Random(37)
    for _ in range(60):
        n = rng.randint(1, 4)
        Q = random_matrix(rng, n)
        sig = random_auto(rng, n)
        der = random_inner_derivation(rng, Q, sig)
        comps = decompose_homogeneous(der)
        total = [TorusElement.zero(CTX, n) for _ in range(n)]
        for comp in comps:
            for j in range(n):
                total[j] = total[j] + component_image(comp, CTX, j)
        assert tuple(total) == der.images


def test_pairwise_identity_on_validated_components():
    rng = random.Random(41)
    for _ in range(60):
        n = rng.randint(2, 4)
        Q = random_matrix(rng, n)
        sig = random_auto(rng, n)
        der = random_inner_derivation(rng, Q, sig)
        for comp in decompose_homogeneous(der):
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


def _compat_outcome(check, comp, sig, Q):
    try:
        drops = check(comp, sig, Q)
    except Inconsistent as exc:
        return str(exc)
    return [render_scalar(c) for c in drops]


@st.composite
def _components(draw):
    """A weight, an eigenvalue per generator (its cocycle q_j(d), so a zero
    drop, or a random unit) and coefficients proportional to the drops, some
    of them replaced by random scalars."""
    n = draw(st.integers(2, 5))
    units = st.sampled_from(UNIT_POOL).map(U)
    Q = matrix_from_upper(CTX, n, {(i, j): draw(units) for i in range(n) for j in range(i + 1, n)})
    d = draw(_exponents(n, 2))
    sig = ToricAutomorphism(
        CTX, tuple(qrs(Q, d, j)[0] if draw(st.booleans()) else draw(units) for j in range(n))
    )
    scalars = st.sampled_from(["0", *_COEFFS]).map(lambda text: parse_scalar(text, CTX))
    drops = pairwise_compat(HomogeneousComponent(d, (FieldElement.zero(CTX),) * n), sig, Q)
    kappa = draw(scalars)
    coeffs = [draw(scalars) if draw(st.booleans()) else kappa * drop for drop in drops]
    return HomogeneousComponent(d, tuple(coeffs)), sig, Q


@settings(max_examples=300, deadline=None)
@given(_components())
def test_pivot_check_matches_the_pairwise_oracle(case):
    assert _compat_outcome(_check_compat, *case) == _compat_outcome(pairwise_compat, *case)


def test_pivot_check_edge_cases():
    Q = matrix_from_upper(CTX, 3, {(0, 1): U("q"), (0, 2): U("p"), (1, 2): U("r")})
    d = (1, 0, 1)
    cocycle = [qrs(Q, d, j)[0] for j in range(3)]
    one, two = FieldElement.one(CTX), S("2")

    def drops_of(lambdas):
        zero = HomogeneousComponent(d, (S("0"),) * 3)
        return pairwise_compat(zero, ToricAutomorphism(CTX, lambdas), Q)

    def outcomes(lambdas, coeffs):
        case = (HomogeneousComponent(d, tuple(coeffs)), ToricAutomorphism(CTX, lambdas), Q)
        got = _compat_outcome(_check_compat, *case)
        assert got == _compat_outcome(pairwise_compat, *case)
        return got

    # every drop zero: any coefficients pass
    assert outcomes(cocycle, [one, two, S("q")]) == ["0", "0", "0"]
    # a zero first drop makes index 1 the pivot; a_0 != 0 fails the pair (0, 1)
    lambdas = [cocycle[0], U("l1"), U("q^2")]
    assert outcomes(lambdas, [one, S("0"), S("0")]).startswith(
        "coefficient identity fails for pair (0, 1)"
    )
    drops = drops_of(lambdas)
    assert outcomes(lambdas, [S("0"), drops[1], drops[2]])[0] == "0"
    # a_2 off by a factor 2 fails (0, 2) and (1, 2), which does not contain the
    # pivot 0; the first failing pair always contains it
    lambdas = [U("l1"), U("l1^2"), U("q^2")]
    drops = drops_of(lambdas)
    assert outcomes(lambdas, [drops[0], drops[1], two * drops[2]]) == (
        f"coefficient identity fails for pair (0, 2) at weight {d}"
    )
    assert outcomes(lambdas, [drops[0], two * drops[1], two * drops[2]]).startswith(
        "coefficient identity fails for pair (0, 1)"
    )


# -- classification -----------------------------------------------------------


def test_classify_quantum_plane_locally_inner():
    # lambda = (l1, q^-1) with l1 generic, weight (-1, 2)
    space = SelectiveSpace(QPLANE, frozenset())
    sig = ToricAutomorphism(CTX, (U("l1"), U("q^-1")))
    der = SkewDerivation(QPLANE, sig, (E("y^2"), E("0")))
    assert validate_derivation(der) is None
    (comp,) = decompose_homogeneous(der)
    report = classify_component(comp, sig, space)
    assert report.kind == "locally_inner" and report.j == 0
    expected = elem_scale(S("1/(q^-2 - l1)"), E("x^-1*y^2"))
    assert report.inducer == expected


def test_classify_quantum_plane_outer():
    # lambda = (q^-j, q^i) at weight (i, j): conjugate to a derivation
    i, j = 1, 2
    space = SelectiveSpace(QPLANE, frozenset())
    sig = ToricAutomorphism(CTX, (U("q").pow(-j), U("q").pow(i)))
    der = SkewDerivation(
        QPLANE, sig, (E("x^2*y^2"), TorusElement.zero(CTX, 2))
    )
    assert validate_derivation(der) is None
    (comp,) = decompose_homogeneous(der)
    report = classify_component(comp, sig, space)
    assert report.kind == "outer_conjugate"
    assert report.j is None and report.inducer is None
    assert report.weight == (i, j)


def test_classify_case_a_full():
    Q3 = matrix_from_upper(
        CTX, 3, {(0, 1): U("q"), (0, 2): U("p"), (1, 2): U("r")}
    )
    names = ("x1", "x2", "x3")
    space = SelectiveSpace(Q3, frozenset())
    sig = ToricAutomorphism(CTX, (U("l1"), U("r^-1*q^-1"), U("r*p^-1")))
    a = parse_element("q*x1^-1*x2*x3", CTX, Q3, names)
    der = inner_derivation(Q3, sig, a)
    (comp,) = decompose_homogeneous(der)
    report = classify_component(comp, sig, space)
    assert report.kind == "locally_inner" and report.j == 0
    assert report.inducer == a


def test_classification_round_trip():
    rng = random.Random(43)
    for _ in range(60):
        n = rng.randint(1, 4)
        Q = random_matrix(rng, n)
        sig = random_auto(rng, n)
        der = random_inner_derivation(rng, Q, sig)
        torus = SelectiveSpace(Q, frozenset(range(n)))
        for comp in decompose_homogeneous(der):
            report = classify_component(comp, sig, torus)
            if report.kind != "outer_conjugate":
                back = inner_derivation(Q, sig, report.inducer)
                for j in range(n):
                    assert back.images[j] == component_image(comp, CTX, j)


def test_classify_dichotomy_random():
    rng = random.Random(47)
    one = UnitMonomial.one(CTX)
    for _ in range(60):
        n = rng.randint(1, 4)
        Q = random_matrix(rng, n)
        d = tuple(rng.randint(-3, 3) for _ in range(n))
        torus = SelectiveSpace(Q, frozenset(range(n)))
        if rng.random() < 0.5:
            sig = sigma_made_inner(rng, Q, d)
            j = rng.randrange(n)
            der = outer_derivation(Q, sig, d, j)
            (comp,) = decompose_homogeneous(der)
            assert classify_component(comp, sig, torus).kind == "outer_conjugate"
        else:
            sig = random_auto(rng, n)
            mism = [j for j in range(n) if qrs(Q, d, j)[0] != sig.lambdas[j]]
            der = inner_derivation(Q, sig, TorusElement.monomial(CTX, n, d))
            comps = decompose_homogeneous(der)
            if not mism:
                assert der.is_zero() and not comps
            else:
                (comp,) = comps
                assert classify_component(comp, sig, torus).kind == "inner"


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 4),
    st.sampled_from(["inner", "outer", "both"]),
    st.sets(st.integers(0, 3)),
)
def test_verdicts_on_a_selective_space_hold_on_the_torus(seed, n, kind, extra):
    # the Weyl witness reuses the verdicts made on the stage's space: one
    # conjugate to a derivation there is so on the torus, and an inner or
    # locally inner one is inner on the torus with the same inducer
    rng = random.Random(seed)
    Q = random_matrix(rng, n)
    d = tuple(rng.randint(-2, 2) for _ in range(n))
    sig = random_auto(rng, n) if kind == "inner" else sigma_made_inner(rng, Q, d)
    images = [TorusElement.zero(CTX, n)] * n
    if kind != "outer":
        images = list(random_inner_derivation(rng, Q, sig).images)
    if kind != "inner":
        j = rng.randrange(n)
        images[j] = images[j] + outer_derivation(Q, sig, d, j).images[j]
    der = SkewDerivation(Q, sig, images)
    validate_derivation(der)
    # the least space holding the images, with some more generators inverted
    inverted = {i for im in images for e in im.terms for i, k in enumerate(e) if k < 0}
    space = SelectiveSpace(Q, inverted | {i for i in extra if i < n})
    torus = SelectiveSpace(Q, range(n))
    for comp in decompose_homogeneous(der):
        here = classify_component(comp, sig, space)
        there = classify_component(comp, sig, torus)
        if here.kind == "outer_conjugate":
            assert there.kind == "outer_conjugate"
        else:
            assert there.kind == "inner" and there.inducer == here.inducer


def test_classify_rejects_forbidden_case():
    # 2-exceptional weight but the exceptional image is accompanied by a
    # cocycle mismatch at another non-inverted index
    space = SelectiveSpace(QPLANE, frozenset())
    sig = ToricAutomorphism(CTX, (U("l1"), U("p")))
    from skewtor import HomogeneousComponent

    comp = HomogeneousComponent((1, -1), (FieldElement.zero(CTX), FieldElement.one(CTX)))
    with pytest.raises(Inconsistent):
        classify_component(comp, sig, space)


def test_classify_rejects_an_empty_component():
    from skewtor import HomogeneousComponent

    space = SelectiveSpace(QPLANE, frozenset())
    sig = identity_automorphism(CTX, 2)
    comp = HomogeneousComponent((0, 0), (FieldElement.zero(CTX),) * 2)
    with pytest.raises(Inconsistent, match="empty component"):
        classify_component(comp, sig, space)
