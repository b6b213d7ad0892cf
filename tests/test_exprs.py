"""Grammar: parsing, printing, and the round-trip fixed point."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import render_ast, single_parameter, tokenize_oracle
from skewtor import (
    ExprSyntaxError,
    ParameterContext,
    TorusElement,
    UnknownIdentifier,
)
from skewtor.exprs import _Parser
from skewtor.presentation import parse_element, parse_scalar, parse_unit
from skewtor.render import render_element, render_scalar, render_unit

CTX = ParameterContext(["q", "l1"])
QP = single_parameter(CTX, "q", 2)
NAMES = ("x1", "x2")


def E(text):
    return parse_element(text, CTX, QP, NAMES)


def test_scalar_atoms():
    assert parse_scalar("3", CTX) == parse_scalar("6/2", CTX)
    assert parse_scalar("-1/2", CTX) == -parse_scalar("1/2", CTX)
    assert parse_scalar("q^-2", CTX) == parse_scalar("1/q^2", CTX)
    assert parse_scalar("(q + 1)*(q - 1)", CTX) == parse_scalar("q^2 - 1", CTX)


def test_unit_parsing():
    assert parse_unit("2*q^-1*l1", CTX).coeff == 2
    with pytest.raises(Exception):
        parse_unit("q + 1", CTX)


def test_syntax_errors_report_position():
    with pytest.raises(ExprSyntaxError) as exc:
        parse_scalar("q^", CTX)
    assert "position" in str(exc.value)
    with pytest.raises(ExprSyntaxError):
        parse_scalar("q +", CTX)
    with pytest.raises(ExprSyntaxError):
        parse_scalar("(q", CTX)
    with pytest.raises(ExprSyntaxError):
        parse_scalar("q q", CTX)
    with pytest.raises(ExprSyntaxError):
        parse_scalar("q ! 2", CTX)


def test_unknown_identifiers():
    with pytest.raises(UnknownIdentifier):
        parse_scalar("zz + 1", CTX)
    with pytest.raises(UnknownIdentifier):
        E("x3*x1")


def test_element_normal_form_reordering():
    # x2*x1 normalizes with the inverse commutation scalar in front
    assert render_element(E("x2*x1"), NAMES) == "q^-1*x1*x2"
    assert E("x1*x2") == E("q*x2*x1")


def test_zero_element():
    assert E("(q - q)*x1").is_zero()
    assert render_element(E("x1 - x1"), NAMES) == "0"


def test_juxtaposition_rejected():
    with pytest.raises(ExprSyntaxError):
        E("q x1")


def test_division_of_elements():
    assert E("x1^2/x1") == E("x1")
    assert E("x2*x1/q") == E("q^-2*x1*x2")
    with pytest.raises(Exception):
        E("x1/(x1 + x2)")


def test_print_parse_round_trip_elements():
    cases = [
        "x1",
        "q^-1*x1*x2",
        "x1^2 - x2^2",
        "3/2*x1^-3*x2",
        "-x1 + 2*x2",
        "(q + 1)*x1",
        "q^2*x1*x2^-4 - 1",
        "0",
    ]
    for text in cases:
        el = E(text)
        printed = render_element(el, NAMES)
        assert E(printed) == el, text
        assert render_element(E(printed), NAMES) == printed, text


def test_print_parse_round_trip_scalars():
    cases = ["q", "q + 1", "-q^-2 + 1/3", "(q^2 + 1)/(q - 1)", "1/2", "0", "l1*q^-1"]
    for text in cases:
        fe = parse_scalar(text, CTX)
        printed = render_scalar(fe)
        assert parse_scalar(printed, CTX) == fe, text
        assert render_scalar(parse_scalar(printed, CTX)) == printed, text


def test_render_unit_round_trip():
    for text in ["q", "q^-1", "2*q^3*l1^-2", "-5/3", "1"]:
        u = parse_unit(text, CTX)
        assert parse_unit(render_unit(u), CTX) == u


def test_compound_coefficient_rendering():
    el = E("(q + 1)*x1*x2")
    printed = render_element(el, NAMES)
    assert printed == "(q + 1)*x1*x2"
    assert E(printed) == el


def test_render_ast_fixed_point():
    from skewtor.exprs import parse_ast

    cases = [
        "x1",
        "q^-1*x1*x2",
        "(q - q)*x1",
        "x11*x22 - q*x12*x21",
        "-2/3*x1 + (q + 1)*(q - 1)",
        "1/(q - q^-1)*x1",
        "q^2 - 1",
    ]
    for text in cases:
        tree = parse_ast(text)
        printed = render_ast(tree)
        assert parse_ast(printed) == tree, text
        assert render_ast(parse_ast(printed)) == printed, text


_PIECES = ["x", "x1", "q", "_a", "Ab9", "0", "7", "42", "+", "-", "*", "/", "^", "(", ")"]
_PIECES += [" ", "  ", "\t", "\n", "\u00a0", "\u2003", "$", ".", "\u00e9", "\u0663", ","]


def _tokens_or_message(tokenize, text):
    try:
        return tokenize(text)
    except ExprSyntaxError as exc:
        return str(exc)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(_PIECES), max_size=12).map("".join) | st.text(max_size=12))
def test_one_scan_tokenizer_matches_the_per_match_oracle(text):
    expected = _tokens_or_message(tokenize_oracle, text)
    assert _tokens_or_message(lambda t: _Parser(t).tokens, text) == expected


def test_unexpected_character_is_located_before_its_whitespace():
    with pytest.raises(ExprSyntaxError) as exc:
        parse_scalar("x $ 2", CTX)
    assert str(exc.value) == "unexpected character (at position 1: 'x' ^ ' $ 2')"
    assert parse_scalar("q \t\n", CTX) == parse_scalar("q", CTX)
