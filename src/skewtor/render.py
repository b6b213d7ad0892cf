"""Rendering of scalars and elements back to the shared grammar.

Printing then parsing is the identity on normalized values, so reports can
be fed back into the tool.
"""

from __future__ import annotations

import re

from .exprs import format_laurent, format_monomial, join_terms
from .scalars import FieldElement, LaurentPoly, UnitMonomial
from .torus import TorusElement

_SIMPLE = re.compile(r"^[A-Za-z_][A-Za-z_0-9]*(\^-?\d+)?$|^\d+$")


def render_unit(u: UnitMonomial) -> str:
    sign, body = format_monomial(u.coeff, u.exps, u.ctx.names)
    return f"-{body}" if sign < 0 else body


def render_laurent(p: LaurentPoly) -> str:
    return format_laurent(p.terms, p.ctx.names)


def render_scalar(c: FieldElement) -> str:
    num = render_laurent(c.num)
    if c.den == LaurentPoly.one(c.ctx):
        return num
    den = render_laurent(c.den)
    if len(c.num.terms) > 1:
        num = f"({num})"
    if not _SIMPLE.fullmatch(den):
        den = f"({den})"
    return f"{num}/{den}"


def _coeff_parts(c: FieldElement) -> tuple[int, str | None]:
    """(sign, inline factor or None-for-1) when c is a plain Laurent monomial."""
    if c.den == LaurentPoly.one(c.ctx):
        single = c.num.single_term()
        if single is not None:
            e, coeff = single
            sign, body = format_monomial(coeff, e, c.ctx.names)
            if body == "1":
                return sign, None
            return sign, body
    return 0, None


def render_element(u: TorusElement, names: tuple[str, ...]) -> str:
    if u.is_zero():
        return "0"
    signed: list[tuple[int, str]] = []
    for e, c in u:
        gens = "*".join(
            name if k == 1 else f"{name}^{k}"
            for name, k in zip(names, e)
            if k != 0
        )
        sign, inline = _coeff_parts(c)
        if sign != 0:
            if not gens:
                signed.append((sign, inline or "1"))
            elif inline is None:
                signed.append((sign, gens))
            else:
                signed.append((sign, f"{inline}*{gens}"))
        else:
            body = f"({render_scalar(c)})"
            signed.append((1, f"{body}*{gens}" if gens else body))
    return join_terms(signed)


def render_exponents(e: tuple[int, ...]) -> str:
    return "(" + ", ".join(str(k) for k in e) + ")"
