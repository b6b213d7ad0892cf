"""Field arithmetic, unit monomials, and normalization."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewtor import (
    DivisionByZero,
    FieldElement,
    LaurentPoly,
    ParameterContext,
    UnitMonomial,
)
from skewtor.presentation import parse_scalar, parse_unit
from skewtor.scalars import _normalize

CTX = ParameterContext(["q", "p"])


def S(text):
    return parse_scalar(text, CTX)


def U(text):
    return parse_unit(text, CTX)


def test_zero_case():
    assert S("q - q") + S("p") == S("p")
    assert (S("q") - S("q")).is_zero()
    assert (S("2*q") - S("2*q")) == FieldElement.zero(CTX)


def test_product_difference_of_inverses():
    # hand expansion: (q^-1 - q)(q^-1 + q) = q^-2 - q^2
    lhs = S("q^-1 - q") * S("q^-1 + q")
    assert lhs == S("q^-2 - q^2")


def test_division_cross_product_identity():
    quot = S("q^2 - 1") / S("q - 1")
    # cross-multiplication: (q^2 - 1) * 1 == (q + 1) * (q - 1)
    assert quot == S("q + 1")
    assert quot.num * S("1").den == S("q + 1").num * quot.den


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        S("q") / S("q - q")
    with pytest.raises(DivisionByZero):
        FieldElement(LaurentPoly.one(CTX), LaurentPoly.zero(CTX))


def test_unreduced_fractions_compare_equal():
    a = S("(q^2 - 1)/(q - 1)") * S("(p - 1)/(p - 1)")
    assert a == S("q + 1")
    assert not (a == S("q"))


def test_um_pow():
    assert U("q").pow(-1) == U("q^-1")
    assert U("2*q*p^-1").pow(2) == U("4*q^2*p^-2")
    assert U("3*q^5*p^-2").pow(0) == UnitMonomial.one(CTX)


def test_um_eq():
    assert U("q") * U("q^-1") == UnitMonomial.one(CTX)
    assert U("q*p") == U("p*q")
    assert U("q") != U("q^2")


def test_generic_parameters_no_root_of_unity():
    # q^k = 1 only for k = 0
    for k in (1, 2, 3, 7):
        assert U("q").pow(k) != UnitMonomial.one(CTX)


def test_normalization_den_primitive():
    a = S("q")
    b = a / S("2")
    assert b.den == LaurentPoly.one(CTX)
    assert b.num.terms == {CTX.unit_exps("q"): Fraction(1, 2)}
    c = S("q") / S("p")
    assert c.den == LaurentPoly.one(CTX)


rationals = st.builds(
    Fraction, st.integers(-6, 6), st.integers(1, 4)
).filter(lambda f: f != 0)
exps2 = st.tuples(st.integers(-2, 2), st.integers(-2, 2))


@st.composite
def laurent_polys(draw, allow_zero=True):
    n_terms = draw(st.integers(0 if allow_zero else 1, 3))
    terms = {}
    for _ in range(n_terms):
        terms[draw(exps2)] = draw(rationals)
    return LaurentPoly(CTX, terms)


@st.composite
def field_elements(draw, nonzero=False):
    num = draw(laurent_polys(allow_zero=not nonzero))
    den = draw(laurent_polys(allow_zero=False))
    return FieldElement(num, den)


@settings(max_examples=150, deadline=None)
@given(field_elements(), field_elements(), field_elements())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@settings(max_examples=100, deadline=None)
@given(field_elements(nonzero=True))
def test_field_inverses(a):
    assert a * a.inv() == FieldElement.one(CTX)


@st.composite
def units(draw):
    return UnitMonomial(CTX, draw(rationals), draw(exps2))


@settings(max_examples=150, deadline=None)
@given(units(), units(), st.integers(-4, 4), st.integers(-4, 4))
def test_um_pow_homomorphism(u, v, a, b):
    assert u.pow(a) * u.pow(b) == u.pow(a + b)
    assert (u * v).pow(a) == u.pow(a) * v.pow(a)


@settings(max_examples=150, deadline=None)
@given(units(), units())
def test_unit_embedding_consistency(u, v):
    # promoting to the field commutes with multiplication and inversion
    assert FieldElement.from_unit(u * v) == FieldElement.from_unit(u) * FieldElement.from_unit(v)
    assert FieldElement.from_unit(u.inv()) == FieldElement.from_unit(u).inv()
    assert FieldElement.from_unit(u).as_unit() == u


# -- exactness of the fast paths ------------------------------------------------
#
# The tests above compare values by cross multiplication, which cannot see a
# change of representation.  These compare the stored terms with those the
# full normalization path gives.


def full_path(num, den):
    """The terms ``_normalize`` gives for num/den."""
    n, d = _normalize(num, den)
    return n.terms, d.terms


def stored(x):
    return x.num.terms, x.den.terms


def clean(p):
    """Every coefficient is a nonzero Fraction and every key a tuple."""
    return all(
        type(c) is Fraction and c != 0 and type(e) is tuple for e, c in p.terms.items()
    )


@st.composite
def multi_term_denominators(draw):
    # in q alone, or in q and p
    p_exps = st.just(0) if draw(st.booleans()) else st.integers(-2, 2)
    exps = st.tuples(st.integers(-2, 2), p_exps)
    terms = draw(st.dictionaries(exps, rationals, min_size=2, max_size=3))
    return LaurentPoly(CTX, terms)


@st.composite
def normalized_fractions(draw):
    """A FieldElement built by the full path, often with a multi-term
    denominator, and with numerators that a unit can strip of p."""
    den = draw(st.one_of(laurent_polys(allow_zero=False), multi_term_denominators()))
    if draw(st.booleans()):
        num = draw(laurent_polys())
    else:
        q_only = st.dictionaries(
            st.tuples(st.integers(-2, 2), st.just(0)), rationals, max_size=3
        )
        num = LaurentPoly(CTX, draw(q_only)).shift((0, draw(st.integers(-2, 2))))
    return FieldElement(num, den)


@settings(max_examples=300, deadline=None)
@given(normalized_fractions(), units())
def test_unit_factor_keeps_the_terms_of_the_full_path(a, u):
    f = FieldElement.from_unit(u)
    expected = full_path(a.num * f.num, a.den * f.den)
    assert stored(a * f) == expected
    assert stored(f * a) == expected


def test_unit_factor_that_leaves_one_parameter_cancels_the_gcd():
    # p (q^2 - 1) / (q^2 + q - 2) involves two parameters, so its common
    # factor q - 1 is kept; times p^-1 it involves q alone and cancels
    a = S("p*(q^2 - 1)") / S("q^2 + q - 2")
    assert len(a.den.terms) == 3
    b = a * S("p^-1")
    assert stored(b) == stored(S("q + 1") / S("q + 2"))
    assert stored(b) == full_path(a.num.shift((0, -1)), a.den)


@settings(max_examples=150, deadline=None)
@given(laurent_polys())
def test_unit_denominator_construction_keeps_the_terms_of_the_full_path(num):
    one = LaurentPoly.one(CTX)
    assert stored(FieldElement(num, one)) == full_path(num, one)


@settings(max_examples=150, deadline=None)
@given(units())
def test_from_unit_keeps_the_terms_of_the_full_path(u):
    f = FieldElement.from_unit(u)
    assert stored(f) == full_path(LaurentPoly(CTX, {u.exps: u.coeff}), LaurentPoly.one(CTX))
    assert clean(f.num) and clean(f.den)


@settings(max_examples=150, deadline=None)
@given(laurent_polys(), laurent_polys(), rationals, exps2)
def test_polynomial_operations_leave_no_zero_coefficient(p, q, c, e):
    assert (p + (-p)).terms == {}
    assert (p - p).is_zero()
    assert p.scale(0).terms == {} and p.scale(Fraction(0)).is_zero()
    for r in (p + q, p - q, p * q, -p, p.scale(c), p.shift(e)):
        assert clean(r)
        assert r == LaurentPoly(CTX, r.terms)
