"""Automorphisms, derivations, homogeneous decomposition, classification."""

import random

import pytest

from skewtor import (
    CommutationMatrix,
    FieldElement,
    Inconsistent,
    Inner,
    LocallyInner,
    NotValidated,
    OuterConjugate,
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
    inner_derivation,
    is_central,
    is_q_skew,
    qrs,
    validate_derivation,
    zero_derivation,
)
from skewtor.presentation import parse_element, parse_scalar, parse_unit

from helpers import (
    CTX,
    U,
    outer_derivation,
    random_auto,
    random_element,
    random_inner_derivation,
    random_matrix,
    sigma_made_inner,
)

QPLANE = CommutationMatrix.single_parameter(CTX, "q", 2)
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
    Q1 = CommutationMatrix.ones(CTX, 1)
    sig = ToricAutomorphism(CTX, (U("q"),))
    der = inner_derivation(Q1, sig, TorusElement.generator(CTX, 1, 0, -1))
    assert der.images[0] == parse_element("1 - q", CTX, Q1, ("y",))


def test_inner_derivation_case_a():
    Q3 = CommutationMatrix.from_upper(
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
    Q = CommutationMatrix.from_upper(CTX, 2, {(0, 1): U("q")})
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
    violation = validate_derivation(der)
    assert violation is not None and (violation.i, violation.j) == (0, 1)
    # both sides evaluated: they differ by the factor q on y^2
    assert violation.lhs == E("y^2")
    assert violation.rhs == E("q*y^2")


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
    Q = CommutationMatrix.from_upper(CTX, 2, {(0, 1): U("q^2")})
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
                total[j] = total[j] + comp.image(CTX, j)
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


# -- classification -----------------------------------------------------------


def test_classify_quantum_plane_locally_inner():
    # lambda = (l1, q^-1) with l1 generic, weight (-1, 2)
    space = SelectiveSpace(QPLANE, frozenset())
    sig = ToricAutomorphism(CTX, (U("l1"), U("q^-1")))
    der = SkewDerivation(QPLANE, sig, (E("y^2"), E("0")))
    assert validate_derivation(der) is None
    (comp,) = decompose_homogeneous(der)
    cls = classify_component(comp, sig, space)
    assert isinstance(cls, LocallyInner) and cls.j == 0
    expected = elem_scale(S("1/(q^-2 - l1)"), E("x^-1*y^2"))
    assert cls.inducer == expected


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
    cls = classify_component(comp, sig, space)
    assert isinstance(cls, OuterConjugate)
    assert cls.weight == (i, j)


def test_classify_case_a_full():
    Q3 = CommutationMatrix.from_upper(
        CTX, 3, {(0, 1): U("q"), (0, 2): U("p"), (1, 2): U("r")}
    )
    names = ("x1", "x2", "x3")
    space = SelectiveSpace(Q3, frozenset())
    sig = ToricAutomorphism(CTX, (U("l1"), U("r^-1*q^-1"), U("r*p^-1")))
    a = parse_element("q*x1^-1*x2*x3", CTX, Q3, names)
    der = inner_derivation(Q3, sig, a)
    (comp,) = decompose_homogeneous(der)
    cls = classify_component(comp, sig, space)
    assert isinstance(cls, LocallyInner) and cls.j == 0
    assert cls.inducer == a


def test_classification_round_trip():
    rng = random.Random(43)
    for _ in range(60):
        n = rng.randint(1, 4)
        Q = random_matrix(rng, n)
        sig = random_auto(rng, n)
        der = random_inner_derivation(rng, Q, sig)
        torus = SelectiveSpace(Q, frozenset(range(n)))
        for comp in decompose_homogeneous(der):
            cls = classify_component(comp, sig, torus)
            if isinstance(cls, (Inner, LocallyInner)):
                back = inner_derivation(Q, sig, cls.inducer)
                for j in range(n):
                    assert back.images[j] == comp.image(CTX, j)


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
            assert isinstance(classify_component(comp, sig, torus), OuterConjugate)
        else:
            sig = random_auto(rng, n)
            mism = [j for j in range(n) if qrs(Q, d, j)[0] != sig.lambdas[j]]
            der = inner_derivation(Q, sig, TorusElement.monomial(CTX, n, d))
            comps = decompose_homogeneous(der)
            if not mism:
                assert der.is_zero() and not comps
            else:
                (comp,) = comps
                assert isinstance(classify_component(comp, sig, torus), Inner)


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
    sig = ToricAutomorphism.identity(CTX, 2)
    comp = HomogeneousComponent((0, 0), (FieldElement.zero(CTX),) * 2)
    with pytest.raises(Inconsistent, match="empty component"):
        classify_component(comp, sig, space)
