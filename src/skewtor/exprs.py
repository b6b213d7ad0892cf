"""Shared expression grammar: parsing and printing.

Grammar (used for scalar entries and for noncommutative elements alike)::

    expr   := '-'? term (('+' | '-') term)*
    term   := atom (('*' | '/') atom)*
    atom   := INT | NAME ('^' '-'? INT)? | '(' expr ')'

``INT '/' INT`` yields an exact rational, and more generally ``/`` divides
by a scalar factor.  Juxtaposition is not multiplication; ``*`` is required.
NAME is ``[A-Za-z_][A-Za-z_0-9]*``.  Parsing scans the text once with one
regular expression and produces a small AST of value nodes, collecting the
names it meets; evaluation is parameterized over the value domain so the
same trees serve field elements and torus elements.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Callable, Iterable

from .errors import ExprSyntaxError
from .record import Record

_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")

# one match per token, as the groups (blank, int, name, op, bad): exactly one
# of the last four is nonempty.  ``bad`` catches any other non-blank
# character, so consecutive matches cover the text up to trailing whitespace
# and a token's position is where the whitespace before it starts
_TOKEN = re.compile(rf"(\s*)(?:(\d+)|({_NAME.pattern})|([-+*/^()])|(\S))")
_EOF = ("", "", "", "", "")


def is_name(text: str) -> bool:
    """True when ``text`` is a NAME of the grammar."""
    return _NAME.fullmatch(text) is not None


# the nodes spell out their equality and hashing, which ``evaluate``'s memo
# runs on every lookup: twice as fast as the generic ones of ``Record``
class Pow(Record):
    """A generator or parameter name raised to the integer power k."""

    __slots__ = ("name", "k")

    def __init__(self, name: str, k: int):
        self.name = name
        self.k = k

    def __eq__(self, other) -> bool:
        if other.__class__ is not Pow:
            return NotImplemented
        return self.name == other.name and self.k == other.k

    def __hash__(self) -> int:
        return hash((self.name, self.k))


class Term(Record):
    """A product of factors combined left to right; each entry is
    (node, invert_flag), and an inverted factor divides."""

    __slots__ = ("factors",)

    def __init__(self, factors: tuple[tuple[object, bool], ...]):
        self.factors = factors

    def __eq__(self, other) -> bool:
        if other.__class__ is not Term:
            return NotImplemented
        return self.factors == other.factors

    def __hash__(self) -> int:
        return hash(self.factors)


class Sum(Record):
    """A signed sum: (sign, term) pairs, sign in {+1, -1}."""

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[tuple[int, object], ...]):
        self.terms = terms

    def __eq__(self, other) -> bool:
        if other.__class__ is not Sum:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)


# an integer literal is a bare Fraction leaf
Expr = Fraction | Pow | Term | Sum


class _Parser:
    """Recursive descent over the tokens of one scan of the text.

    ``names`` collects every name the expression uses.  A token's position
    is worked out only for an error message.
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens = _TOKEN.findall(text)
        self.tokens.append(_EOF)
        self.i = 0
        self.names: set[str] = set()

    def position(self, index: int) -> int:
        """Where token ``index`` starts, with the whitespace before it."""
        if index >= len(self.tokens) - 1:
            return len(self.text)
        return sum(len("".join(tok)) for tok in self.tokens[:index])

    def error(self, message: str, index: int) -> ExprSyntaxError:
        """The error at token ``index``.  An unexpected character anywhere in
        the text is reported instead, as no parse can get past it."""
        for j, tok in enumerate(self.tokens):
            if tok[4]:
                message, index = "unexpected character", j
                break
        return ExprSyntaxError(message, self.text, self.position(index))

    def integer(self, digits: str, index: int) -> int:
        try:
            return int(digits)
        except ValueError:  # more digits than the interpreter converts
            raise self.error("integer literal too long", index) from None

    def parse(self) -> Expr:
        try:
            node = self.expr()
        except RecursionError:
            raise self.error("expression nested too deeply", self.i) from None
        if self.i != len(self.tokens) - 1:
            raise self.error("trailing input", self.i)
        return node

    def expr(self) -> Expr:
        tokens = self.tokens
        sign = 1
        if tokens[self.i][3] == "-":
            self.i += 1
            sign = -1
        terms = [(sign, self.term())]
        op = tokens[self.i][3]
        while op == "+" or op == "-":
            self.i += 1
            terms.append((1 if op == "+" else -1, self.term()))
            op = tokens[self.i][3]
        if len(terms) == 1 and sign == 1:
            return terms[0][1]
        return Sum(tuple(terms))

    def term(self) -> Expr:
        tokens = self.tokens
        factors = [(self.atom(), False)]
        op = tokens[self.i][3]
        while op == "*" or op == "/":
            self.i += 1
            factors.append((self.atom(), op == "/"))
            op = tokens[self.i][3]
        if len(factors) == 1:
            return factors[0][0]
        return Term(tuple(factors))

    def atom(self) -> Expr:
        tokens, i = self.tokens, self.i
        _, digits, name, op, _ = tokens[i]
        self.i = i + 1
        if digits:
            return Fraction(self.integer(digits, i))
        if name:
            self.names.add(name)
            if tokens[i + 1][3] != "^":
                return Pow(name, 1)
            _, digits, _, op, _ = tokens[i + 2]
            i += 2
            if op == "-":
                i += 1
                digits = tokens[i][1]
            self.i = i + 1
            if not digits:
                raise self.error("expected integer exponent", i)
            k = self.integer(digits, i)
            return Pow(name, -k if op == "-" else k)
        if op == "(":
            node = self.expr()
            if tokens[self.i][3] != ")":
                raise self.error("expected ')'", self.i)
            self.i += 1
            return node
        raise self.error("expected a number, name or '('", i)


def parse_with_names(text: str) -> tuple[Expr, set[str]]:
    """The tree of ``text`` and the set of names it uses."""
    parser = _Parser(text)
    return parser.parse(), parser.names


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
    and reused for every equal node (nodes are values that do not change, so
    equal subtrees are equal keys).  The caller owns the dict: it must not
    outlive the hooks the values were made with, and the values must not be
    mutated.
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
