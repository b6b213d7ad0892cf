"""Shared expression grammar: parsing and printing.

Grammar (used for scalar entries and for noncommutative elements alike)::

    expr   := '-'? term (('+' | '-') term)*
    term   := atom (('*' | '/') atom)*
    atom   := INT | NAME ('^' '-'? INT)? | '(' expr ')'

``INT '/' INT`` yields an exact rational, and more generally ``/`` divides
by a scalar factor.  Juxtaposition is not multiplication; ``*`` is required.
Parsing produces a small AST; evaluation is parameterized over the value
domain so the same trees serve field elements and torus elements.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from .errors import ExprSyntaxError

_TOKEN = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()]))"
)


@dataclass(frozen=True)
class Rat:
    value: Fraction


@dataclass(frozen=True)
class Pow:
    name: str
    k: int


@dataclass(frozen=True)
class Term:
    # factors combined left to right; each entry is (node, invert_flag)
    factors: tuple[tuple[object, bool], ...]


@dataclass(frozen=True)
class Sum:
    # (sign, term) pairs, sign in {+1, -1}
    terms: tuple[tuple[int, object], ...]


Expr = Rat | Pow | Term | Sum


def names_in(node: Expr) -> set[str]:
    if isinstance(node, Pow):
        return {node.name}
    if isinstance(node, Term):
        out: set[str] = set()
        for f, _ in node.factors:
            out |= names_in(f)
        return out
    if isinstance(node, Sum):
        out = set()
        for _, t in node.terms:
            out |= names_in(t)
        return out
    return set()


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m or m.end() == pos:
                if text[pos:].strip():
                    raise ExprSyntaxError("unexpected character", text, pos)
                break
            if m.group("int"):
                self.tokens.append(("int", m.group("int"), m.start()))
            elif m.group("name"):
                self.tokens.append(("name", m.group("name"), m.start()))
            else:
                self.tokens.append(("op", m.group("op"), m.start()))
            pos = m.end()
        self.tokens.append(("eof", "", len(text)))
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ExprSyntaxError(f"expected {op!r}", self.text, pos)

    def parse(self) -> Expr:
        node = self.expr()
        kind, _, pos = self.peek()
        if kind != "eof":
            raise ExprSyntaxError("trailing input", self.text, pos)
        return node

    def expr(self) -> Expr:
        terms: list[tuple[int, Expr]] = []
        sign = 1
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.next()
            sign = -1
        terms.append((sign, self.term()))
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                terms.append((1 if val == "+" else -1, self.term()))
            else:
                break
        if len(terms) == 1 and terms[0][0] == 1:
            return terms[0][1]
        return Sum(tuple(terms))

    def term(self) -> Expr:
        factors: list[tuple[Expr, bool]] = [(self.atom(), False)]
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                factors.append((self.atom(), val == "/"))
            else:
                break
        if len(factors) == 1 and not factors[0][1]:
            return factors[0][0]
        return Term(tuple(factors))

    def atom(self) -> Expr:
        kind, val, pos = self.next()
        if kind == "int":
            return Rat(Fraction(int(val)))
        if kind == "name":
            k = 1
            kind2, val2, _ = self.peek()
            if kind2 == "op" and val2 == "^":
                self.next()
                neg = False
                kind3, val3, pos3 = self.next()
                if kind3 == "op" and val3 == "-":
                    neg = True
                    kind3, val3, pos3 = self.next()
                if kind3 != "int":
                    raise ExprSyntaxError("expected integer exponent", self.text, pos3)
                k = -int(val3) if neg else int(val3)
            return Pow(val, k)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError("expected a number, name or '('", self.text, pos)


def parse_ast(text: str) -> Expr:
    return _Parser(text).parse()


def evaluate(
    node: Expr,
    constant: Callable[[Fraction], object],
    atom: Callable[[str, int], object],
    multiply: Callable[[object, object], object],
    divide: Callable[[object, object], object],
):
    """Fold an AST in any domain with + and unary - operators and mul/div hooks."""
    if isinstance(node, Rat):
        return constant(node.value)
    if isinstance(node, Pow):
        return atom(node.name, node.k)
    if isinstance(node, Term):
        out = None
        for f, inv in node.factors:
            v = evaluate(f, constant, atom, multiply, divide)
            if out is None:
                out = divide(constant(Fraction(1)), v) if inv else v
            else:
                out = divide(out, v) if inv else multiply(out, v)
        return out
    if isinstance(node, Sum):
        out = None
        for sign, t in node.terms:
            v = evaluate(t, constant, atom, multiply, divide)
            if sign < 0:
                v = -v
            out = v if out is None else out + v
        return out
    raise TypeError(f"not an expression node: {node!r}")


def render_ast(node: Expr) -> str:
    """Expression tree back to source text; parse(render_ast(t)) == t holds
    structurally for trees produced by parse_ast."""
    if isinstance(node, Rat):
        return str(node.value)
    if isinstance(node, Pow):
        return node.name if node.k == 1 else f"{node.name}^{node.k}"
    if isinstance(node, Term):
        parts = []
        for i, (f, inv) in enumerate(node.factors):
            body = render_ast(f)
            if isinstance(f, Sum) or (isinstance(f, Rat) and "/" in body and i > 0):
                body = f"({body})"
            if i == 0:
                parts.append(f"1/{body}" if inv else body)
            else:
                parts.append(("/" if inv else "*") + body)
        return "".join(parts)
    if isinstance(node, Sum):
        out = []
        for i, (sign, t) in enumerate(node.terms):
            body = render_ast(t)
            if isinstance(t, Sum):
                body = f"({body})"
            if i == 0:
                out.append(f"-{body}" if sign < 0 else body)
            else:
                out.append((" - " if sign < 0 else " + ") + body)
        return "".join(out)
    raise TypeError(f"not an expression node: {node!r}")


# -- printing ---------------------------------------------------------------


def _fraction_str(c: Fraction) -> str:
    return str(c)


def format_monomial(
    coeff: Fraction, exps: Iterable[int], names: Iterable[str]
) -> tuple[int, str]:
    """Return (sign, body) for ``coeff * prod(names^exps)``; body has no sign."""
    sign = -1 if coeff < 0 else 1
    mag = abs(coeff)
    parts = [
        name if e == 1 else f"{name}^{e}"
        for name, e in zip(names, exps)
        if e != 0
    ]
    if not parts:
        return sign, _fraction_str(mag)
    if mag != 1:
        parts.insert(0, _fraction_str(mag))
    return sign, "*".join(parts)


def join_terms(signed: list[tuple[int, str]]) -> str:
    if not signed:
        return "0"
    pieces = []
    for i, (sign, body) in enumerate(signed):
        if i == 0:
            pieces.append(f"-{body}" if sign < 0 else body)
        else:
            pieces.append(f" - {body}" if sign < 0 else f" + {body}")
    return "".join(pieces)


def format_laurent(terms: dict, names: tuple[str, ...]) -> str:
    """Render a Laurent polynomial, highest exponent vector first."""
    signed = [
        format_monomial(c, e, names)
        for e, c in sorted(terms.items(), reverse=True)
    ]
    return join_terms(signed)
