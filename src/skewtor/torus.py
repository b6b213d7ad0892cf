"""Normal-form arithmetic in a quantum torus and its selective localizations.

Elements are finite sums ``sum c_d * x^d`` over exponent vectors ``d`` in
``Z^n``, stored in the normal form ``x^d = x_1^{d_1} ... x_n^{d_n}``.  The
only relations are ``x_i x_j = q_ij x_j x_i`` for a multiplicatively
antisymmetric matrix ``Q``, plus invertibility of every generator; a
selectively localized space restricts membership to exponent vectors that
are nonnegative at every non-inverted index.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import DivisionByZero, IndexOutOfRange, InputError
from .record import Record
from .scalars import FieldElement, ParameterContext, UnitMonomial, enforce_cap

ExponentVec = tuple[int, ...]

_ONE = Fraction(1)


def indicator(n: int, J: Iterable[int]) -> ExponentVec:
    """The exponent vector with 1 at every index in J and 0 elsewhere."""
    J = frozenset(J)
    return tuple(1 if i in J else 0 for i in range(n))


# one entry q_kl of the lower-triangle form: None when q_kl = 1, else the
# nonzero (parameter index, exponent) pairs of q_kl and its coefficient, or
# None for the coefficient 1
LowerEntry = tuple[tuple[tuple[int, int], ...], Fraction | None] | None


def _lower_entry(u: UnitMonomial) -> LowerEntry:
    """``u`` as an entry of the lower-triangle form."""
    pairs = tuple((i, e) for i, e in enumerate(u.exps) if e)
    c = None if u.coeff == 1 else u.coeff
    if not pairs and c is None:
        return None
    return pairs, c


class CommutationMatrix:
    """A multiplicatively antisymmetric n x n matrix of unit monomials.

    ``entries``, the full matrix, is the source: ``__init__`` checks it.
    ``lower`` is derived from it inside this class only: row k holds the
    entries q_kl for l < k in the sparse form of ``LowerEntry``.
    ``__init__`` builds every row from the checked entries and
    ``append_row`` builds only the new one, from the same row it appends,
    so the two forms cannot drift.  Monomial products and cocycles read
    ``lower``.
    """

    __slots__ = ("ctx", "n", "entries", "lower")

    def __init__(self, ctx: ParameterContext, entries: Sequence[Sequence[UnitMonomial]]):
        self.ctx = ctx
        self.n = len(entries)
        self.entries = tuple(tuple(row) for row in entries)
        one = UnitMonomial.one(ctx)
        for i, row in enumerate(self.entries):
            if len(row) != self.n:
                raise InputError("commutation matrix is not square")
            if row[i] != one:
                raise InputError(f"commutation matrix has q[{i}][{i}] != 1")
            for j in range(i + 1, self.n):
                if self.entries[j][i] != row[j].inv():
                    raise InputError(
                        f"commutation matrix is not multiplicatively antisymmetric "
                        f"at ({i}, {j})"
                    )
        self.lower = tuple(
            tuple(map(_lower_entry, row[:k])) for k, row in enumerate(self.entries)
        )

    def entry(self, i: int, j: int) -> UnitMonomial:
        return self.entries[i][j]

    @classmethod
    def _trusted(
        cls,
        ctx: ParameterContext,
        entries: tuple[tuple[UnitMonomial, ...], ...],
        lower: tuple[tuple[LowerEntry, ...], ...],
    ) -> CommutationMatrix:
        """Wrap entries known to form an antisymmetric matrix, and their
        lower-triangle form; they are not checked again."""
        Q = object.__new__(cls)
        Q.ctx, Q.n, Q.entries, Q.lower = ctx, len(entries), entries, lower
        return Q

    def append_row(self, row: Sequence[UnitMonomial]) -> CommutationMatrix:
        """Extend by one generator whose commutation scalars are ``row``.

        The earlier entries were checked when this matrix was built, and the
        new column holds the inverses of ``row``, so the result is
        antisymmetric by construction: O(n) work, not O(n^2).  The earlier
        rows of ``lower`` are reused and ``row`` is the new one.
        """
        if len(row) != self.n:
            raise InputError("appended row has wrong length")
        row = tuple(row)
        entries = tuple(r + (u.inv(),) for r, u in zip(self.entries, row))
        return CommutationMatrix._trusted(
            self.ctx,
            entries + (row + (UnitMonomial.one(self.ctx),),),
            self.lower + (tuple(map(_lower_entry, row)),),
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, CommutationMatrix) and self.entries == other.entries

    def __repr__(self) -> str:
        return f"CommutationMatrix(n={self.n})"


class SelectiveSpace(Record):
    """A quantum affine space with a chosen subset of generators inverted."""

    __slots__ = ("Q", "inverted")

    def __init__(self, Q: CommutationMatrix, inverted: Iterable[int]):
        self.Q = Q
        self.inverted = frozenset(inverted)
        if any(i < 0 or i >= Q.n for i in self.inverted):
            raise IndexOutOfRange("inverted index out of range")

    @property
    def n(self) -> int:
        return self.Q.n


class TorusElement:
    """A normal-form element: finite map from exponent vectors to coefficients."""

    __slots__ = ("ctx", "n", "terms")

    def __init__(
        self,
        ctx: ParameterContext,
        n: int,
        terms: Mapping[ExponentVec, FieldElement] | None = None,
    ):
        self.ctx = ctx
        self.n = n
        clean: dict[ExponentVec, FieldElement] = {}
        if terms:
            for e, c in terms.items():
                e = tuple(e)
                if len(e) != n:
                    raise InputError("exponent vector length does not match ambient")
                if not c.is_zero():
                    clean[e] = c
        self.terms = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, ctx: ParameterContext, n: int) -> TorusElement:
        return cls(ctx, n)

    @classmethod
    def one(cls, ctx: ParameterContext, n: int) -> TorusElement:
        return cls.monomial(ctx, n, (0,) * n)

    @classmethod
    def monomial(
        cls, ctx: ParameterContext, n: int, exps: ExponentVec, coeff: FieldElement | None = None
    ) -> TorusElement:
        if coeff is None:
            coeff = FieldElement.one(ctx)
        return cls(ctx, n, {tuple(exps): coeff})

    @classmethod
    def generator(cls, ctx: ParameterContext, n: int, i: int, power: int = 1) -> TorusElement:
        if not 0 <= i < n:
            raise IndexOutOfRange(f"generator index {i} out of range for n={n}")
        e = [0] * n
        e[i] = power
        return cls.monomial(ctx, n, tuple(e))

    @classmethod
    def scalar(cls, ctx: ParameterContext, n: int, c: FieldElement) -> TorusElement:
        return cls(ctx, n, {(0,) * n: c})

    # -- structure ----------------------------------------------------------

    def __iter__(self) -> Iterator[tuple[ExponentVec, FieldElement]]:
        for e in sorted(self.terms):
            yield e, self.terms[e]

    def is_zero(self) -> bool:
        return not self.terms

    def single_term(self) -> tuple[ExponentVec, FieldElement] | None:
        if len(self.terms) == 1:
            return next(iter(self.terms.items()))
        return None

    def extend_to(self, n: int) -> TorusElement:
        """Reinterpret in a larger ambient by padding exponents with zeros."""
        if n == self.n:
            return self
        if n < self.n:
            raise InputError("cannot shrink ambient")
        pad = (0,) * (n - self.n)
        return TorusElement(self.ctx, n, {e + pad: c for e, c in self.terms.items()})

    # -- Q-free arithmetic ---------------------------------------------------

    def __add__(self, other: TorusElement) -> TorusElement:
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(e, None)
            else:
                out[e] = s
        enforce_cap(len(out), "element support size")
        return TorusElement(self.ctx, self.n, out)

    def __neg__(self) -> TorusElement:
        return TorusElement(self.ctx, self.n, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: TorusElement) -> TorusElement:
        return self + (-other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TorusElement):
            return NotImplemented
        if self.n != other.n or set(self.terms) != set(other.terms):
            return False
        return all(c == other.terms[e] for e, c in self.terms.items())

    def __repr__(self) -> str:
        return f"TorusElement(n={self.n}, {len(self.terms)} terms)"


# -- operations depending on Q ------------------------------------------------


def _cocycle(ctx: ParameterContext, factors: Iterable[tuple[LowerEntry, int]]) -> UnitMonomial:
    """The product of ``q^m`` over the pairs ``(entry, m)`` of lower-triangle
    entries: an entry None (q = 1) adds nothing, exponents are summed as
    integers, and only a coefficient other than 1 is raised."""
    coeff = _ONE
    exps = [0] * len(ctx)
    for entry, m in factors:
        if entry is not None:
            pairs, c = entry
            for i, e in pairs:
                exps[i] += m * e
            if c is not None:
                coeff *= c**m
    return UnitMonomial._trusted(ctx, coeff, tuple(exps))


def monomial_mul(
    Q: CommutationMatrix, a: ExponentVec, b: ExponentVec
) -> tuple[UnitMonomial, ExponentVec]:
    """Reorder ``x^a * x^b`` to normal form: returns the scalar and ``a + b``.

    The scalar is ``prod_{k > l} q_kl^(a_k b_l)``, read from the
    lower-triangle form over the supports only: for each nonzero ``a_k``,
    the entries ``q_kl`` with ``l < k`` at the nonzero ``b_l``.
    """
    lower = Q.lower
    support = [(l, bl) for l, bl in enumerate(b) if bl]
    factors = [
        (lower[k][l], ak * bl) for k, ak in enumerate(a) if ak for l, bl in support if l < k
    ]
    return _cocycle(Q.ctx, factors), tuple(map(add, a, b))


def monomial_inverse(Q: CommutationMatrix, exps: ExponentVec) -> TorusElement:
    """The exact inverse of the basis monomial ``x^exps``."""
    neg = tuple(-e for e in exps)
    scalar, _ = monomial_mul(Q, neg, exps)
    return TorusElement.monomial(Q.ctx, Q.n, neg, FieldElement.from_unit(scalar.inv()))


def elem_mul(Q: CommutationMatrix, u: TorusElement, v: TorusElement) -> TorusElement:
    out: dict[ExponentVec, FieldElement] = {}
    for ea, ca in u.terms.items():
        for eb, cb in v.terms.items():
            scalar, e = monomial_mul(Q, ea, eb)
            c = (ca * cb).times_unit(scalar)
            s = out.get(e)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(e, None)
            else:
                out[e] = s
    enforce_cap(len(out), "element support size")
    return TorusElement(u.ctx, u.n, out)


def elem_scale(c: FieldElement, u: TorusElement) -> TorusElement:
    if c.is_zero():
        return TorusElement.zero(u.ctx, u.n)
    return TorusElement(u.ctx, u.n, {e: c * cc for e, cc in u.terms.items()})


def elem_inv(Q: CommutationMatrix, u: TorusElement) -> TorusElement:
    """Invert a single-term element; anything else is not a unit here."""
    st = u.single_term()
    if st is None:
        raise InputError("only monomials are invertible in the torus")
    e, c = st
    return elem_scale(c.inv(), monomial_inverse(Q, e))


def elem_div(Q: CommutationMatrix, a: TorusElement, b: TorusElement) -> TorusElement:
    """``a * b^-1`` for a single-term ``b``; a scalar ``b`` only rescales ``a``."""
    if b.is_zero():
        raise DivisionByZero("division by zero")
    st = b.single_term()
    if st is None:
        raise InputError("division by a sum is not defined here")
    e, c = st
    if any(e):
        return elem_mul(Q, a, elem_inv(Q, b))
    return elem_scale(c.inv(), a)


def elem_pow(Q: CommutationMatrix, u: TorusElement, k: int) -> TorusElement:
    """``u^k``; a negative k inverts a single-term u first.

    A single term ``c x^e`` has the closed form
    ``c^k mu^(k(k-1)/2) x^(ke)`` with ``x^e x^e = mu x^(2e)``, since
    ``x^(je) x^e = mu^j x^((j+1)e)``; a unit c is raised in one step, and
    the result prints as the repeated product does.  Anything else is
    multiplied out.
    """
    if k < 0:
        return elem_pow(Q, elem_inv(Q, u), -k)
    st = u.single_term()
    if st is not None:
        e, c = st
        mu, _ = monomial_mul(Q, e, e)
        scale = mu.pow(k * (k - 1) // 2)
        unit = c.as_unit()
        if unit is None:
            coeff = c**k * FieldElement.from_unit(scale)
        else:
            coeff = FieldElement.from_unit(unit.pow(k) * scale)
        return TorusElement.monomial(u.ctx, u.n, tuple(k * x for x in e), coeff)
    out = TorusElement.one(u.ctx, u.n)
    for _ in range(k):
        out = elem_mul(Q, out, u)
    return out


def qrs(
    Q: CommutationMatrix, d: ExponentVec, j: int
) -> tuple[UnitMonomial, UnitMonomial, UnitMonomial]:
    """The commutation cocycles (q_j(d), r_j(d), s_j(d)); q_j = r_j * s_j^-1.

    ``x^d x_j = r_j(d) x^{d+e_j}`` and ``x_j x^d = s_j(d) x^{d+e_j}``.
    """
    if not 0 <= j < Q.n:
        raise IndexOutOfRange(f"generator index {j} out of range")
    lower = Q.lower
    support = [(k, dk) for k, dk in enumerate(d) if dk]
    # r_j(d) from column j below the diagonal, s_j(d) from row j
    r = _cocycle(Q.ctx, ((lower[k][j], dk) for k, dk in support if k > j))
    s = _cocycle(Q.ctx, ((lower[j][l], dl) for l, dl in support if l < j))
    return r * s.inv(), r, s


def membership(space: SelectiveSpace, u: TorusElement) -> bool:
    """True iff every support vector is nonnegative off the inverted set."""
    inv = space.inverted
    return all(
        all(x >= 0 for i, x in enumerate(e) if i not in inv) for e in u.terms
    )


def exceptional_index(d: ExponentVec, inverted: Iterable[int] = ()) -> int | None:
    """The unique j making d j-exceptional, or None."""
    inv = frozenset(inverted)
    negatives = [i for i, x in enumerate(d) if i not in inv and x < 0]
    if len(negatives) == 1 and d[negatives[0]] == -1:
        return negatives[0]
    return None


def is_central(space: SelectiveSpace, u: TorusElement) -> bool:
    """Monomial-wise centrality test: q_j(d) = 1 for all j and all d in support."""
    one = UnitMonomial.one(space.Q.ctx)
    for d in u.terms:
        for j in range(space.n):
            if qrs(space.Q, d, j)[0] != one:
                return False
    return True

