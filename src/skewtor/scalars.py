"""Exact arithmetic in the coefficient field.

Scalars are fractions of Laurent polynomials with rational coefficients in a
fixed finite list of formal parameters.  Parameters are generic: two scalars
are equal only when the cross product of their fraction representations is
identically equal, so no root-of-unity identification ever happens.

Three layers:

* ``UnitMonomial`` -- an invertible scalar ``c * p1^a1 * ... * pm^am`` with
  ``c`` a nonzero rational.  Commutation matrix entries and automorphism
  eigenvalues live here.
* ``LaurentPoly`` -- a finite sum of such monomials (coefficients stored
  as a mapping from exponent vectors to nonzero rationals).
* ``FieldElement`` -- a quotient of two Laurent polynomials.  Fractions are
  not reduced to lowest terms; only monomial content is normalized, and
  equality is decided by cross multiplication, which is exact regardless.

All values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator, Mapping

from .errors import DivisionByZero, UnknownIdentifier

Exponents = tuple[int, ...]


class ParameterContext:
    """An ordered list of distinct formal parameter names."""

    __slots__ = ("names", "_index")

    def __init__(self, names: Iterable[str] = ()):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate parameter names in {names}")
        self.names = names
        self._index = {name: i for i, name in enumerate(names)}

    def __len__(self) -> int:
        return len(self.names)

    def __eq__(self, other) -> bool:
        return isinstance(other, ParameterContext) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"ParameterContext({list(self.names)!r})"

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownIdentifier(f"unknown parameter {name!r}") from None

    def zero_exps(self) -> Exponents:
        return (0,) * len(self.names)

    def unit_exps(self, name: str, power: int = 1) -> Exponents:
        e = [0] * len(self.names)
        e[self.index(name)] = power
        return tuple(e)


def _gcd_fraction(a: Fraction, b: Fraction) -> Fraction:
    # gcd on Q: gcd of numerators over lcm of denominators, always >= 0
    num = gcd(a.numerator, b.numerator)
    den = (a.denominator * b.denominator) // gcd(a.denominator, b.denominator)
    return Fraction(num, den)


class UnitMonomial:
    """A unit scalar: nonzero rational times a product of parameter powers."""

    __slots__ = ("ctx", "coeff", "exps")

    def __init__(self, ctx: ParameterContext, coeff, exps: Exponents | None = None):
        coeff = Fraction(coeff)
        if coeff == 0:
            raise DivisionByZero("a unit monomial must have nonzero coefficient")
        self.ctx = ctx
        self.coeff = coeff
        self.exps = tuple(exps) if exps is not None else ctx.zero_exps()
        if len(self.exps) != len(ctx):
            raise ValueError("exponent vector length does not match context")

    @classmethod
    def one(cls, ctx: ParameterContext) -> UnitMonomial:
        return cls(ctx, 1)

    @classmethod
    def parameter(cls, ctx: ParameterContext, name: str, power: int = 1) -> UnitMonomial:
        return cls(ctx, 1, ctx.unit_exps(name, power))

    def __mul__(self, other: UnitMonomial) -> UnitMonomial:
        return UnitMonomial(
            self.ctx,
            self.coeff * other.coeff,
            tuple(a + b for a, b in zip(self.exps, other.exps)),
        )

    def inv(self) -> UnitMonomial:
        return UnitMonomial(self.ctx, 1 / self.coeff, tuple(-e for e in self.exps))

    def pow(self, k: int) -> UnitMonomial:
        if k == 0:
            return UnitMonomial.one(self.ctx)
        return UnitMonomial(self.ctx, self.coeff**k, tuple(k * e for e in self.exps))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, UnitMonomial)
            and self.coeff == other.coeff
            and self.exps == other.exps
        )

    def __hash__(self) -> int:
        return hash((self.coeff, self.exps))

    def __repr__(self) -> str:
        return f"UnitMonomial({self.coeff}, {self.exps})"

    def to_field(self) -> FieldElement:
        num = LaurentPoly(self.ctx, {self.exps: self.coeff})
        return FieldElement(num, LaurentPoly.one(self.ctx))


def um_prod(ctx: ParameterContext, factors: Iterable[UnitMonomial]) -> UnitMonomial:
    out = UnitMonomial.one(ctx)
    for f in factors:
        out = out * f
    return out


class LaurentPoly:
    """Integer-exponent polynomial over Q in the context parameters."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: ParameterContext, terms: Mapping[Exponents, Fraction] | None = None):
        self.ctx = ctx
        clean: dict[Exponents, Fraction] = {}
        if terms:
            for exps, c in terms.items():
                c = Fraction(c)
                if c != 0:
                    clean[tuple(exps)] = c
        self.terms = clean

    @classmethod
    def zero(cls, ctx: ParameterContext) -> LaurentPoly:
        return cls(ctx)

    @classmethod
    def one(cls, ctx: ParameterContext) -> LaurentPoly:
        return cls.constant(ctx, 1)

    @classmethod
    def constant(cls, ctx: ParameterContext, c) -> LaurentPoly:
        return cls(ctx, {ctx.zero_exps(): Fraction(c)})

    def is_zero(self) -> bool:
        return not self.terms

    def __iter__(self) -> Iterator[tuple[Exponents, Fraction]]:
        return iter(sorted(self.terms.items()))

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        return f"LaurentPoly({self.terms!r})"

    def __add__(self, other: LaurentPoly) -> LaurentPoly:
        out = dict(self.terms)
        for exps, c in other.terms.items():
            s = out.get(exps, Fraction(0)) + c
            if s:
                out[exps] = s
            else:
                out.pop(exps, None)
        return LaurentPoly(self.ctx, out)

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly(self.ctx, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: LaurentPoly) -> LaurentPoly:
        return self + (-other)

    def __mul__(self, other: LaurentPoly) -> LaurentPoly:
        out: dict[Exponents, Fraction] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(a + b for a, b in zip(ea, eb))
                s = out.get(e, Fraction(0)) + ca * cb
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return LaurentPoly(self.ctx, out)

    def scale(self, c) -> LaurentPoly:
        c = Fraction(c)
        return LaurentPoly(self.ctx, {e: cc * c for e, cc in self.terms.items()})

    def shift(self, exps: Exponents) -> LaurentPoly:
        """Multiply by the monomial with the given exponent vector."""
        return LaurentPoly(
            self.ctx,
            {tuple(a + b for a, b in zip(e, exps)): c for e, c in self.terms.items()},
        )

    def leading(self) -> tuple[Exponents, Fraction]:
        """Lexicographically largest term."""
        e = max(self.terms)
        return e, self.terms[e]

    def content(self) -> Fraction:
        """Positive rational content (gcd of the coefficients); 0 for 0."""
        c = Fraction(0)
        for coeff in self.terms.values():
            c = _gcd_fraction(c, abs(coeff))
        return c

    def monomial_content(self) -> Exponents:
        """Componentwise minimum of the exponent vectors."""
        if not self.terms:
            return self.ctx.zero_exps()
        mins = None
        for e in self.terms:
            mins = e if mins is None else tuple(map(min, mins, e))
        return mins

    def single_term(self) -> tuple[Exponents, Fraction] | None:
        if len(self.terms) == 1:
            return next(iter(self.terms.items()))
        return None


class FieldElement:
    """A quotient num/den of Laurent polynomials, den nonzero.

    Equality of a/b and c/d is the identity a*d == c*b, so the lack of full
    gcd reduction never affects correctness.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly, normalize: bool = True):
        if den.is_zero():
            raise DivisionByZero("zero denominator")
        if normalize:
            num, den = _normalize(num, den)
        self.num = num
        self.den = den

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ctx: ParameterContext) -> FieldElement:
        return cls(LaurentPoly.zero(ctx), LaurentPoly.one(ctx), normalize=False)

    @classmethod
    def one(cls, ctx: ParameterContext) -> FieldElement:
        return cls.rational(ctx, 1)

    @classmethod
    def rational(cls, ctx: ParameterContext, c) -> FieldElement:
        return cls(LaurentPoly.constant(ctx, c), LaurentPoly.one(ctx), normalize=False)

    @classmethod
    def parameter(cls, ctx: ParameterContext, name: str, power: int = 1) -> FieldElement:
        return UnitMonomial.parameter(ctx, name, power).to_field()

    @classmethod
    def from_unit(cls, u: UnitMonomial) -> FieldElement:
        return u.to_field()

    # -- predicates --------------------------------------------------------

    @property
    def ctx(self) -> ParameterContext:
        return self.num.ctx

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def as_unit(self) -> UnitMonomial | None:
        """This element as a unit monomial, or None if it is not one."""
        nt, dt = self.num.single_term(), self.den.single_term()
        if nt is None or dt is None:
            return None
        (en, cn), (ed, cd) = nt, dt
        return UnitMonomial(self.ctx, cn / cd, tuple(a - b for a, b in zip(en, ed)))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: FieldElement) -> FieldElement:
        if self.den == other.den:
            return FieldElement(self.num + other.num, self.den)
        return FieldElement(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: FieldElement) -> FieldElement:
        return self + (-other)

    def __neg__(self) -> FieldElement:
        return FieldElement(-self.num, self.den, normalize=False)

    def __mul__(self, other: FieldElement) -> FieldElement:
        return FieldElement(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: FieldElement) -> FieldElement:
        if other.is_zero():
            raise DivisionByZero("division by zero scalar")
        return FieldElement(self.num * other.den, self.den * other.num)

    def inv(self) -> FieldElement:
        return FieldElement.one(self.ctx) / self

    def __pow__(self, k: int) -> FieldElement:
        if k < 0:
            return self.inv() ** (-k)
        out = FieldElement.one(self.ctx)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self) -> int:  # pragma: no cover - not used as dict key
        raise TypeError("FieldElement is not hashable (equality is cross-multiplicative)")

    def __repr__(self) -> str:
        return f"FieldElement({self.num.terms!r}, {self.den.terms!r})"


def _normalize(num: LaurentPoly, den: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """Make den a primitive polynomial with positive lex lead and no monomial
    content (both are divided by the same unit, so the value is unchanged),
    then cancel cheap common factors: an exact monomial quotient, or the
    polynomial gcd when a single parameter is involved.  Full multivariate
    gcd reduction is deliberately not attempted."""
    ctx = num.ctx
    if num.is_zero():
        return LaurentPoly.zero(ctx), LaurentPoly.one(ctx)
    num, den = _strip_den(num, den)
    if len(den.terms) > 1:
        quo = _monomial_quotient(num, den)
        if quo is not None:
            return quo, LaurentPoly.one(ctx)
        reduced = _univariate_reduce(num, den)
        if reduced is not None:
            num, den = _strip_den(*reduced)
    return num, den


def _strip_den(num: LaurentPoly, den: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    c = den.content()
    _, lead = den.leading()
    if lead < 0:
        c = -c
    m = den.monomial_content()
    neg_m = tuple(-e for e in m)
    inv_c = 1 / c
    return num.shift(neg_m).scale(inv_c), den.shift(neg_m).scale(inv_c)


def _monomial_quotient(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly | None:
    """num/den as a Laurent monomial, when the division is exact."""
    if len(num.terms) != len(den.terms):
        return None
    (en, cn) = num.leading()
    (ed, cd) = den.leading()
    shift = tuple(a - b for a, b in zip(en, ed))
    factor = cn / cd
    if den.shift(shift).scale(factor) == num:
        return LaurentPoly(num.ctx, {shift: factor})
    return None


def _univariate_reduce(
    num: LaurentPoly, den: LaurentPoly
) -> tuple[LaurentPoly, LaurentPoly] | None:
    """Cancel gcd when both operands involve at most one parameter."""
    ctx = num.ctx
    used = {
        i
        for poly in (num, den)
        for e in poly.terms
        for i, k in enumerate(e)
        if k != 0
    }
    if len(used) != 1:
        return None
    (var,) = used

    def to_coeffs(p: LaurentPoly) -> tuple[list[Fraction], int]:
        lo = min(e[var] for e in p.terms)
        hi = max(e[var] for e in p.terms)
        out = [Fraction(0)] * (hi - lo + 1)
        for e, c in p.terms.items():
            out[e[var] - lo] = c
        return out, lo

    def trim(a: list[Fraction]) -> list[Fraction]:
        while a and a[-1] == 0:
            a.pop()
        return a

    def pmod(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
        a = a[:]
        while len(a) >= len(b) and a:
            f = a[-1] / b[-1]
            shift = len(a) - len(b)
            for i, bc in enumerate(b):
                a[shift + i] -= f * bc
            trim(a)
        return a

    def pdiv(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
        q = [Fraction(0)] * (len(a) - len(b) + 1)
        a = a[:]
        while len(a) >= len(b) and a:
            f = a[-1] / b[-1]
            q[len(a) - len(b)] = f
            shift = len(a) - len(b)
            for i, bc in enumerate(b):
                a[shift + i] -= f * bc
            trim(a)
        return q

    an, lo_n = to_coeffs(num)
    ad, lo_d = to_coeffs(den)
    g, h = an[:], ad[:]
    while h:
        g, h = h, pmod(g, h)
    if len(g) <= 1:
        return None
    qn, qd = pdiv(an, g), pdiv(ad, g)

    def back(coeffs: list[Fraction], lo: int) -> LaurentPoly:
        terms = {}
        for k, c in enumerate(coeffs):
            if c:
                e = [0] * len(ctx)
                e[var] = k + lo
                terms[tuple(e)] = c
        return LaurentPoly(ctx, terms)

    return back(qn, lo_n), back(qd, lo_d)
