"""Normal-form arithmetic in a quantum torus and its selective localizations.

Elements are finite sums ``sum c_d * x^d`` over exponent vectors ``d`` in
``Z^n``, stored in the normal form ``x^d = x_1^{d_1} ... x_n^{d_n}``.  The
only relations are ``x_i x_j = q_ij x_j x_i`` for a multiplicatively
antisymmetric matrix ``Q``, plus invertibility of every generator; a
selectively localized space restricts membership to exponent vectors that
are nonnegative at every non-inverted index.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import IndexOutOfRange, InputError, LimitExceeded
from .scalars import FieldElement, ParameterContext, UnitMonomial, um_prod

ExponentVec = tuple[int, ...]


def indicator(n: int, J: Iterable[int]) -> ExponentVec:
    """The exponent vector with 1 at every index in J and 0 elsewhere."""
    J = frozenset(J)
    return tuple(1 if i in J else 0 for i in range(n))


_DEFAULT_MAX_SUPPORT = 100_000


def _max_support() -> int:
    raw = os.environ.get("SKEWTOR_MAX_DEGREE", "")
    if not raw:
        return _DEFAULT_MAX_SUPPORT
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise InputError(f"SKEWTOR_MAX_DEGREE must be a positive integer, got {raw!r}")
    return cap


def _guard(size: int) -> None:
    cap = _max_support()
    if size > cap:
        raise LimitExceeded(
            f"element support size {size} exceeds SKEWTOR_MAX_DEGREE={cap}"
        )


class CommutationMatrix:
    """A multiplicatively antisymmetric n x n matrix of unit monomials."""

    __slots__ = ("ctx", "n", "entries")

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

    @classmethod
    def ones(cls, ctx: ParameterContext, n: int) -> CommutationMatrix:
        one = UnitMonomial.one(ctx)
        return cls(ctx, [[one] * n for _ in range(n)])

    @classmethod
    def from_upper(
        cls, ctx: ParameterContext, n: int, upper: Mapping[tuple[int, int], UnitMonomial]
    ) -> CommutationMatrix:
        """Build from entries q_ij for i < j; the rest is forced."""
        one = UnitMonomial.one(ctx)
        rows = [[one] * n for _ in range(n)]
        for (i, j), u in upper.items():
            rows[i][j] = u
            rows[j][i] = u.inv()
        return cls(ctx, rows)

    @classmethod
    def single_parameter(cls, ctx: ParameterContext, name: str, n: int) -> CommutationMatrix:
        q = UnitMonomial.parameter(ctx, name)
        return cls.from_upper(ctx, n, {(i, j): q for i in range(n) for j in range(i + 1, n)})

    def entry(self, i: int, j: int) -> UnitMonomial:
        return self.entries[i][j]

    def append_row(self, row: Sequence[UnitMonomial]) -> CommutationMatrix:
        """Extend by one generator whose commutation scalars are ``row``."""
        if len(row) != self.n:
            raise InputError("appended row has wrong length")
        one = UnitMonomial.one(self.ctx)
        new = [list(r) + [row[i].inv()] for i, r in enumerate(self.entries)]
        new.append(list(row) + [one])
        return CommutationMatrix(self.ctx, new)

    def __eq__(self, other) -> bool:
        return isinstance(other, CommutationMatrix) and self.entries == other.entries

    def __repr__(self) -> str:
        return f"CommutationMatrix(n={self.n})"


@dataclass(frozen=True)
class SelectiveSpace:
    """A quantum affine space with a chosen subset of generators inverted."""

    Q: CommutationMatrix
    inverted: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "inverted", frozenset(self.inverted))
        if any(i < 0 or i >= self.Q.n for i in self.inverted):
            raise IndexOutOfRange("inverted index out of range")

    @property
    def n(self) -> int:
        return self.Q.n

    def torus(self) -> SelectiveSpace:
        return SelectiveSpace(self.Q, frozenset(range(self.Q.n)))


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

    def coefficient(self, exps: ExponentVec) -> FieldElement:
        return self.terms.get(tuple(exps), FieldElement.zero(self.ctx))

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
        _guard(len(out))
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


def monomial_mul(
    Q: CommutationMatrix, a: ExponentVec, b: ExponentVec
) -> tuple[UnitMonomial, ExponentVec]:
    """Reorder ``x^a * x^b`` to normal form: returns the scalar and ``a + b``."""
    scalar = UnitMonomial.one(Q.ctx)
    for k, ak in enumerate(a):
        if ak == 0:
            continue
        for l in range(k):
            bl = b[l]
            if bl:
                scalar = scalar * Q.entry(k, l).pow(ak * bl)
    return scalar, tuple(x + y for x, y in zip(a, b))


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
            c = ca * cb * FieldElement.from_unit(scalar)
            s = out.get(e)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(e, None)
            else:
                out[e] = s
    _guard(len(out))
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


def elem_pow(Q: CommutationMatrix, u: TorusElement, k: int) -> TorusElement:
    if k < 0:
        return elem_pow(Q, elem_inv(Q, u), -k)
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
    ctx = Q.ctx
    r = um_prod(ctx, (Q.entry(k, j).pow(d[k]) for k in range(j + 1, Q.n)))
    s = um_prod(ctx, (Q.entry(j, l).pow(d[l]) for l in range(j)))
    return r * s.inv(), r, s


def membership(space: SelectiveSpace, u: TorusElement) -> bool:
    """True iff every support vector is nonnegative off the inverted set."""
    inv = space.inverted
    return all(
        all(x >= 0 for i, x in enumerate(e) if i not in inv) for e in u.terms
    )


def is_exceptional(d: ExponentVec, j: int, inverted: Iterable[int] = ()) -> bool:
    """Weight test: d_j = -1 and d_i >= 0 at every other non-inverted index."""
    inv = frozenset(inverted)
    if not 0 <= j < len(d):
        raise IndexOutOfRange(f"index {j} out of range")
    if j in inv:
        raise IndexOutOfRange(f"index {j} is inverted; the test applies off the inverted set")
    if d[j] != -1:
        return False
    return all(x >= 0 for i, x in enumerate(d) if i != j and i not in inv)


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


def apply_scaling(
    u: TorusElement, factor: "callable[[ExponentVec], UnitMonomial]"
) -> TorusElement:
    """Scale each monomial x^d by a unit depending on d (used by toric maps)."""
    return TorusElement(
        u.ctx,
        u.n,
        {e: c * FieldElement.from_unit(factor(e)) for e, c in u.terms.items()},
    )
