"""Grammar: parsing, printing, and the round-trip fixed point."""

import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import bench_families, parse_oracle, render_ast, single_parameter, tokenize_oracle
from skewtor import (
    ExprSyntaxError,
    FieldElement,
    InputError,
    ParameterContext,
    TorusElement,
    UnknownIdentifier,
    elem_mul,
)
from skewtor import exprs, orechain
from skewtor.exprs import Sum, _Parser, evaluate, parse_with_names
from skewtor.presentation import parse_element, parse_presentation, parse_scalar, parse_unit
from skewtor.render import render_element, render_scalar, render_unit
from skewtor.torus import elem_div

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
        tree = parse_with_names(text)[0]
        printed = render_ast(tree)
        assert parse_with_names(printed)[0] == tree, text
        assert render_ast(parse_with_names(printed)[0]) == printed, text


_PIECES = ["x", "x1", "q", "_a", "Ab9", "0", "7", "42", "+", "-", "*", "/", "^", "(", ")"]
_PIECES += [" ", "  ", "\t", "\n", "\u00a0", "\u2003", "$", ".", "\u00e9", "\u0663", ","]


def _tokens_or_message(tokenize, text):
    try:
        return tokenize(text)
    except ExprSyntaxError as exc:
        return str(exc)


_KINDS = ("int", "name", "op")


def _scanned_tokens(text):
    """The parser's one-scan tokens as (kind, text, position) triples; an
    unexpected character raises the parser's own error."""
    parser = _Parser(text)
    tokens = parser.tokens
    if any(tok[4] for tok in tokens):
        raise parser.error("not reached", 0)
    out = []
    for i, tok in enumerate(tokens[:-1]):
        (kind, value), = [(k, v) for k, v in zip(_KINDS, tok[1:4]) if v]
        out.append((kind, value, parser.position(i)))
    out.append(("eof", "", parser.position(len(tokens) - 1)))
    return out


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(_PIECES), max_size=12).map("".join) | st.text(max_size=12))
def test_one_scan_tokenizer_matches_the_per_match_oracle(text):
    expected = _tokens_or_message(tokenize_oracle, text)
    assert _tokens_or_message(_scanned_tokens, text) == expected


# grammar-shaped text: mostly valid expressions with random blanks, and at
# times a piece that breaks them
_blank = st.sampled_from(["", "", " ", "\t", "\u2003"])
_atoms = st.one_of(
    st.sampled_from(["x", "x1", "q", "_a", "Ab9", "0", "7", "42", "\u0663"]),
    st.tuples(st.sampled_from(["x", "q"]), st.sampled_from(["", "-"]), st.sampled_from(["2", "10"]))
    .map(lambda t: f"{t[0]}^{t[1]}{t[2]}"),
)
_shaped = st.recursive(
    _atoms,
    lambda kids: st.one_of(
        st.tuples(kids, st.sampled_from("+-*/"), _blank, kids).map(
            lambda t: f"{t[0]}{t[2]}{t[1]}{t[2]}{t[3]}"
        ),
        st.tuples(st.sampled_from(["", "-"]), kids).map(lambda t: f"{t[0]}({t[1]})"),
    ),
    max_leaves=8,
)
_broken = st.tuples(_shaped, st.integers(0, 40), st.sampled_from(_PIECES)).map(
    lambda t: t[0][: t[1]] + t[2] + t[0][t[1] :]
)


def _parse_or_message(parse, text):
    try:
        return parse(text)
    except ExprSyntaxError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(_shaped | _broken | st.lists(st.sampled_from(_PIECES), max_size=12).map("".join))
def test_one_scan_parser_matches_the_oracle(text):
    # the same tree, the same names and the same error text, position included
    assert _parse_or_message(parse_with_names, text) == _parse_or_message(parse_oracle, text)


def test_unexpected_character_is_located_before_its_whitespace():
    with pytest.raises(ExprSyntaxError) as exc:
        parse_scalar("x $ 2", CTX)
    assert str(exc.value) == "unexpected character (at position 1: 'x' ^ ' $ 2')"
    assert parse_scalar("q \t\n", CTX) == parse_scalar("q", CTX)


def test_a_long_text_is_quoted_in_bounded_pieces():
    # at most 40 characters on each side of the caret, each cut marked with
    # an ellipsis; the position and the text are kept whole
    cases = [
        ("1" * 5000, 0, f"integer literal too long (at position 0: '' ^ {'1' * 40!r}…)"),
        ("x*" * 2000 + "$", 4000, f"unexpected character (at position 4000: …{'x*' * 20!r} ^ '$')"),
    ]
    for text, pos, message in cases:
        with pytest.raises(ExprSyntaxError) as exc:
            parse_with_names(text)
        assert (exc.value.pos, exc.value.text, str(exc.value)) == (pos, text, message)
        assert len(message) < 200


# -- the per-stage memo of evaluate ---------------------------------------------

_SUMS = ["(x1 + q*x2)", "(x1 - 2)", "(q - 1)", "(x2^-1 + 1/2*x1)"]


def _fold(tree, memo=None):
    n = QP.n

    def constant(c):
        return TorusElement.scalar(CTX, n, FieldElement.rational(CTX, c))

    def atom(name, k):
        if name in NAMES:
            return TorusElement.generator(CTX, n, NAMES.index(name), k)
        return TorusElement.scalar(CTX, n, FieldElement.parameter(CTX, name, k))

    return evaluate(
        tree, constant, atom, lambda a, b: elem_mul(QP, a, b), lambda a, b: elem_div(QP, a, b), memo
    )


def _fold_outcome(tree, memo):
    try:
        value = _fold(tree, memo)
    except InputError as exc:
        return "input error", str(exc)
    return value, render_element(value, NAMES)


_leaves = st.sampled_from(["x1", "x2^-1", "q", "3", *_SUMS])
_trees = st.recursive(
    _leaves,
    lambda kids: st.one_of(
        st.tuples(kids, kids).map(lambda t: f"({t[0]} + {t[1]})"),  # nested sums
        st.tuples(kids, kids).map(lambda t: f"{t[0]}*{t[1]}"),
        st.tuples(kids, kids).map(lambda t: f"{t[0]}/{t[1]}"),  # divides by a sum at times
        kids.map(lambda t: f"(-{t})"),  # a sum under unary minus
    ),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(_trees, _trees)
def test_the_memo_is_invisible(a, b):
    # a enters twice, as the inducer of an inner derivation does
    tree = parse_with_names(f"({a})*x1 - q*x1*({a}) + ({b})*({a})")[0]
    memo = {}
    assert _fold_outcome(tree, memo) == _fold_outcome(tree, None)
    # a second fold through the filled memo gives the same value again
    assert _fold_outcome(tree, memo) == _fold_outcome(tree, None)


def test_each_distinct_sum_is_folded_once_per_stage(monkeypatch):
    pres = parse_presentation(json.dumps(bench_families().weyl(0).presentation))
    real = exprs.evaluate
    memos = []  # kept alive, so that each stage's memo has its own id
    seen, folds = Counter(), Counter()

    def counting(node, constant, atom, multiply, divide, memo=None):
        if isinstance(node, Sum):
            if not any(m is memo for m in memos):
                memos.append(memo)
            seen[node] += 1
            if node not in memo:
                folds[id(memo), node] += 1
        return real(node, constant, atom, multiply, divide, memo)

    monkeypatch.setattr(exprs, "evaluate", counting)
    monkeypatch.setattr(orechain, "evaluate", counting)
    orechain.run_all(pres.ctx, pres.stages)
    assert len(memos) == 1  # only the last stage has delta entries
    assert folds and set(folds.values()) == {1}
    # the inner part's a appears twice in each of the 8 delta entries
    assert max(seen.values()) == 16
