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

# ``bad`` catches any other non-blank character, so consecutive matches cover
# the text up to trailing whitespace and a token's position is where the
# whitespace before it starts
_TOKEN = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()])|(?P<bad>\S))"
)


@dataclass(frozen=True)
class Pow:
    """A generator or parameter name raised to the integer power k."""

    name: str
    k: int


@dataclass(frozen=True)
class Term:
    """A product of factors combined left to right; each entry is
    (node, invert_flag), and an inverted factor divides."""

    factors: tuple[tuple[object, bool], ...]


@dataclass(frozen=True)
class Sum:
    """A signed sum: (sign, term) pairs, sign in {+1, -1}."""

    terms: tuple[tuple[int, object], ...]


# an integer literal is a bare Fraction leaf
Expr = Fraction | Pow | Term | Sum


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
        for m in _TOKEN.finditer(text):
            kind = m.lastgroup
            if kind == "bad":
                raise ExprSyntaxError("unexpected character", text, m.start())
            self.tokens.append((kind, m[kind], m.start()))
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

    def integer(self, digits: str, pos: int) -> int:
        try:
            return int(digits)
        except ValueError:  # more digits than the interpreter converts
            raise ExprSyntaxError("integer literal too long", self.text, pos) from None

    def parse(self) -> Expr:
        try:
            node = self.expr()
        except RecursionError:
            raise ExprSyntaxError("expression nested too deeply", self.text, self.peek()[2]) from None
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
            return Fraction(self.integer(val, pos))
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
                k = self.integer(val3, pos3)
                if neg:
                    k = -k
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
    memo: dict | None = None,
):
    """Fold an AST in any domain with + and unary - operators and mul/div hooks.

    With a ``memo`` dict, the value of each ``Sum`` is stored under the node
    and reused for every equal node (nodes are frozen, so equal subtrees are
    equal keys).  The caller owns the dict: it must not outlive the hooks the
    values were made with, and the values must not be mutated.
    """
    if isinstance(node, Fraction):
        return constant(node)
    if isinstance(node, Pow):
        return atom(node.name, node.k)
    if isinstance(node, Term):
        out = None
        for f, inv in node.factors:
            v = evaluate(f, constant, atom, multiply, divide, memo)
            if out is None:
                out = divide(constant(Fraction(1)), v) if inv else v
            else:
                out = divide(out, v) if inv else multiply(out, v)
        return out
    if isinstance(node, Sum):
        out = None if memo is None else memo.get(node)
        if out is not None:
            return out
        for sign, t in node.terms:
            v = evaluate(t, constant, atom, multiply, divide, memo)
            if sign < 0:
                v = -v
            out = v if out is None else out + v
        if memo is not None:
            memo[node] = out
        return out
    raise TypeError(f"not an expression node: {node!r}")


# -- printing ---------------------------------------------------------------

# fewer digits than the smallest limit the interpreter accepts for converting
# an integer to a string (640)
_CHUNK = 10**600


def _rational_text(r: Fraction) -> str:
    """``str(r)`` for a nonnegative rational.  Past the interpreter's digit
    limit ``str`` raises, so long integers are printed 600 digits at a time."""
    if r.numerator < _CHUNK and r.denominator < _CHUNK:
        return str(r)
    texts = []
    for k in [r.numerator] if r.denominator == 1 else [r.numerator, r.denominator]:
        chunks = []
        while k >= _CHUNK:
            k, low = divmod(k, _CHUNK)
            chunks.append(f"{low:0600d}")
        texts.append(str(k) + "".join(reversed(chunks)))
    return "/".join(texts)


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
        return sign, _rational_text(mag)
    if mag != 1:
        parts.insert(0, _rational_text(mag))
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
