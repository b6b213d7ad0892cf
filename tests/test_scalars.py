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
