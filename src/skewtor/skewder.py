"""Toric automorphisms, skew derivations, and their classification.

A toric automorphism scales each generator by a unit.  A skew derivation is
determined by the images of the canonical generators and extends everywhere
by the twisted Leibniz rule ``d(uv) = sigma(u) d(v) + d(u) v``, with
``d(x^-1) = -sigma(x)^-1 d(x) x^-1`` on inverted generators.

Every validated derivation splits into homogeneous components, one per
weight vector.  For a fixed weight exactly one of two things happens: some
commutation cocycle ``q_j(d)`` differs from the eigenvalue ``lambda_j`` and
the component is inner (or locally inner at a single generator when the
weight dips to -1 there), or all cocycles match the eigenvalues and the
component is conjugate to an honest derivation.  In the second case the
weight itself witnesses that the automorphism is inner on the torus: it is
conjugation by ``x^-d``.  ``classify_component`` decides the case exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import Inconsistent, InputError, NotValidated
from .scalars import FieldElement, ParameterContext, UnitMonomial, um_prod
from .torus import (
    CommutationMatrix,
    ExponentVec,
    SelectiveSpace,
    TorusElement,
    apply_scaling,
    elem_mul,
    elem_scale,
    exceptional_index,
    qrs,
)


class ToricAutomorphism:
    """Scales generator i by the unit lambdas[i]; acts on x^d by prod(l_i^d_i)."""

    __slots__ = ("ctx", "lambdas")

    def __init__(self, ctx: ParameterContext, lambdas: Sequence[UnitMonomial]):
        self.ctx = ctx
        self.lambdas = tuple(lambdas)

    @classmethod
    def identity(cls, ctx: ParameterContext, n: int) -> ToricAutomorphism:
        one = UnitMonomial.one(ctx)
        return cls(ctx, (one,) * n)

    @property
    def n(self) -> int:
        return len(self.lambdas)

    def eigenvalue(self, d: ExponentVec) -> UnitMonomial:
        return um_prod(self.ctx, zip(self.lambdas, d))

    def __eq__(self, other) -> bool:
        return isinstance(other, ToricAutomorphism) and self.lambdas == other.lambdas

    def __repr__(self) -> str:
        return f"ToricAutomorphism({self.lambdas!r})"


def apply_auto(sig: ToricAutomorphism, u: TorusElement) -> TorusElement:
    return apply_scaling(u, sig.eigenvalue)


class SkewDerivation:
    """A skew derivation given by its generator images.

    Carries the commutation matrix it lives over.  Must pass
    ``validate_derivation`` before it may be extended to arbitrary elements.
    """

    __slots__ = ("Q", "sigma", "images", "_validated")

    def __init__(
        self,
        Q: CommutationMatrix,
        sigma: ToricAutomorphism,
        images: Sequence[TorusElement],
    ):
        if len(images) != Q.n or sigma.n != Q.n:
            raise InputError("derivation data sizes do not match the ambient")
        self.Q = Q
        self.sigma = sigma
        self.images = tuple(images)
        self._validated = False

    @classmethod
    def trusted(
        cls,
        Q: CommutationMatrix,
        sigma: ToricAutomorphism,
        images: Sequence[TorusElement],
    ) -> SkewDerivation:
        """A derivation its caller knows to respect the relations; it is not
        validated again."""
        d = cls(Q, sigma, images)
        d._validated = True
        return d

    @property
    def ctx(self) -> ParameterContext:
        return self.Q.ctx

    @property
    def n(self) -> int:
        return self.Q.n

    def is_zero(self) -> bool:
        return all(im.is_zero() for im in self.images)

    def __repr__(self) -> str:
        return f"SkewDerivation(n={self.n}, validated={self._validated})"


@dataclass(frozen=True)
class Violation:
    """First generator pair whose relation the images do not respect."""

    i: int
    j: int
    lhs: TorusElement
    rhs: TorusElement


def zero_derivation(Q: CommutationMatrix, sigma: ToricAutomorphism) -> SkewDerivation:
    z = TorusElement.zero(Q.ctx, Q.n)
    d = SkewDerivation(Q, sigma, (z,) * Q.n)
    validate_derivation(d)
    return d


def inner_derivation(
    Q: CommutationMatrix, sig: ToricAutomorphism, a: TorusElement
) -> SkewDerivation:
    """The inner derivation r -> a r - sigma(r) a."""
    images = []
    for j in range(Q.n):
        xj = TorusElement.generator(Q.ctx, Q.n, j)
        im = elem_mul(Q, a, xj) - elem_scale(
            FieldElement.from_unit(sig.lambdas[j]), elem_mul(Q, xj, a)
        )
        images.append(im)
    # inner derivations satisfy the relations identically
    return SkewDerivation.trusted(Q, sig, images)


def validate_derivation(d: SkewDerivation) -> Violation | None:
    """Check compatibility with every relation x_i x_j = q_ij x_j x_i.

    Returns the first failing pair, or None after marking the derivation
    validated.  Together with the inverse-generator rule this pins down a
    well-defined map on the whole torus.
    """
    Q, sig = d.Q, d.sigma
    ctx, n = Q.ctx, Q.n
    for i in range(n):
        for j in range(i + 1, n):
            xi = TorusElement.generator(ctx, n, i)
            xj = TorusElement.generator(ctx, n, j)
            lam_i = FieldElement.from_unit(sig.lambdas[i])
            lhs = elem_scale(lam_i, elem_mul(Q, xi, d.images[j])) + elem_mul(
                Q, d.images[i], xj
            )
            lam_j = FieldElement.from_unit(sig.lambdas[j])
            qij = FieldElement.from_unit(Q.entry(i, j))
            rhs = elem_scale(
                qij,
                elem_scale(lam_j, elem_mul(Q, xj, d.images[i]))
                + elem_mul(Q, d.images[j], xi),
            )
            if lhs != rhs:
                return Violation(i, j, lhs, rhs)
    d._validated = True
    return None


def extend_derivation(d: SkewDerivation, u: TorusElement) -> TorusElement:
    """Apply the derivation to an arbitrary element via the Leibniz rule.

    Monomials are evaluated by peeling the highest-index generator power
    first; scalars map to zero.
    """
    if not d._validated:
        raise NotValidated("validate_derivation must pass before extension")
    Q, sig = d.Q, d.sigma
    ctx, n = Q.ctx, Q.n
    zero = TorusElement.zero(ctx, n)
    power_cache: dict[tuple[int, int], TorusElement] = {}
    mono_cache: dict[ExponentVec, TorusElement] = {}

    def delta_power(j: int, m: int) -> TorusElement:
        # fills the cache from x_j^(+-1) out to x_j^m, one power at a time
        if m == 0:
            return zero
        got = power_cache.get((j, m))
        if got is not None:
            return got
        step = 1 if m > 0 else -1
        lam = FieldElement.from_unit(sig.lambdas[j])
        if step == -1:
            lam = lam.inv()
        x_step = TorusElement.generator(ctx, n, j, step)
        first = power_cache.get((j, step))
        if first is None:
            first = d.images[j]
            if step == -1:
                first = -elem_scale(lam, elem_mul(Q, x_step, elem_mul(Q, first, x_step)))
            power_cache[(j, step)] = first
        # delta(x^k) = lam*x^step*delta(x^(k - step)) + delta(x^step)*x^(k - step)
        out = first
        for k in range(2 * step, m + step, step):
            got = power_cache.get((j, k))
            if got is None:
                rest = TorusElement.generator(ctx, n, j, k - step)
                got = elem_scale(lam, elem_mul(Q, x_step, out)) + elem_mul(Q, first, rest)
                power_cache[(j, k)] = got
            out = got
        return out

    def delta_monomial(e: ExponentVec) -> TorusElement:
        got = mono_cache.get(e)
        if got is not None:
            return got
        j = max((i for i, k in enumerate(e) if k != 0), default=None)
        if j is None:
            out = zero
        else:
            head = e[:j] + (0,) * (n - j)
            if all(k == 0 for k in head):
                out = delta_power(j, e[j])
            else:
                head_mono = TorusElement.monomial(ctx, n, head)
                tail = TorusElement.generator(ctx, n, j, e[j])
                out = elem_mul(Q, apply_auto(sig, head_mono), delta_power(j, e[j]))
                out = out + elem_mul(Q, delta_monomial(head), tail)
        mono_cache[e] = out
        return out

    result = zero
    for e, c in u:
        result = result + elem_scale(c, delta_monomial(e))
    return result


def is_q_skew(d: SkewDerivation, mu: UnitMonomial) -> bool:
    """True iff d(sigma(x_j)) = mu * sigma(d(x_j)) for every generator."""
    if not d._validated:
        raise NotValidated("validate_derivation must pass first")
    mu_f = FieldElement.from_unit(mu)
    for j in range(d.n):
        lam = FieldElement.from_unit(d.sigma.lambdas[j])
        lhs = elem_scale(lam, d.images[j])
        rhs = elem_scale(mu_f, apply_auto(d.sigma, d.images[j]))
        if lhs != rhs:
            return False
    return True


@dataclass(frozen=True)
class HomogeneousComponent:
    """The weight-d part: generator j maps to coeffs[j] * x^(d + e_j)."""

    weight: ExponentVec
    coeffs: tuple[FieldElement, ...]

    def image(self, ctx: ParameterContext, j: int) -> TorusElement:
        n = len(self.weight)
        e = list(self.weight)
        e[j] += 1
        return TorusElement(ctx, n, {tuple(e): self.coeffs[j]})


def decompose_homogeneous(d: SkewDerivation) -> list[HomogeneousComponent]:
    """Split into homogeneous components, sorted by weight."""
    if not d._validated:
        raise NotValidated("validate_derivation must pass first")
    ctx, n = d.ctx, d.n
    zero = FieldElement.zero(ctx)
    buckets: dict[ExponentVec, list[FieldElement]] = {}
    for j, im in enumerate(d.images):
        for e, c in im.terms.items():
            w = list(e)
            w[j] -= 1
            w = tuple(w)
            buckets.setdefault(w, [zero] * n)[j] = c
    return [HomogeneousComponent(w, tuple(buckets[w])) for w in sorted(buckets)]


# -- classification -----------------------------------------------------------


@dataclass(frozen=True)
class Inner:
    inducer: TorusElement


@dataclass(frozen=True)
class LocallyInner:
    j: int
    inducer: TorusElement


@dataclass(frozen=True)
class OuterConjugate:
    weight: ExponentVec
    coeffs: tuple[FieldElement, ...]


Classification = Inner | LocallyInner | OuterConjugate


def _check_compat(
    comp: HomogeneousComponent, sig: ToricAutomorphism, Q: CommutationMatrix
) -> list[FieldElement]:
    """Verify the pairwise coefficient identity; return the drops r_j - l_j s_j."""
    n = Q.n
    d = comp.weight
    drops = []
    for j in range(n):
        _, r, s = qrs(Q, d, j)
        drops.append(
            FieldElement.from_unit(r)
            - FieldElement.from_unit(sig.lambdas[j]) * FieldElement.from_unit(s)
        )
    a = comp.coeffs
    for i in range(n):
        for j in range(i + 1, n):
            if a[i] * drops[j] != a[j] * drops[i]:
                raise Inconsistent(
                    f"coefficient identity fails for pair ({i}, {j}) at weight {d}"
                )
    return drops


def classify_component(
    comp: HomogeneousComponent, sig: ToricAutomorphism, space: SelectiveSpace
) -> Classification:
    """Decide inner / locally inner / conjugate-to-derivation for one weight."""
    Q = space.Q
    ctx, n = Q.ctx, Q.n
    d = comp.weight
    if all(c.is_zero() for c in comp.coeffs):
        raise Inconsistent(f"empty component at weight {d}")
    drops = _check_compat(comp, sig, Q)
    matches = [drops[j].is_zero() for j in range(n)]

    nonneg = all(
        x >= 0 for i, x in enumerate(d) if i not in space.inverted
    )
    if nonneg:
        if all(matches):
            return OuterConjugate(d, comp.coeffs)
        j = next(i for i in range(n) if not comp.coeffs[i].is_zero())
        if matches[j]:
            raise Inconsistent(
                f"nonzero image at generator {j} with vanishing drop at weight {d}"
            )
        b = comp.coeffs[j] / drops[j]
        return Inner(TorusElement.monomial(ctx, n, d, b))

    j = exceptional_index(d, space.inverted)
    if j is None:
        raise Inconsistent(
            f"nonzero component at weight {d}, which supports no derivation "
            "of this space"
        )
    for i in range(n):
        if i != j and not comp.coeffs[i].is_zero():
            raise Inconsistent(
                f"image of generator {i} leaves the space at weight {d}"
            )
    if comp.coeffs[j].is_zero():
        raise Inconsistent(f"empty exceptional component at weight {d}")
    others_match = all(
        matches[i] for i in range(n) if i != j and i not in space.inverted
    )
    if not others_match:
        raise Inconsistent(
            f"forbidden case at weight {d}: a cocycle mismatch off index {j}"
        )
    if matches[j]:
        coeffs = tuple(
            comp.coeffs[i] if i == j else FieldElement.zero(ctx) for i in range(n)
        )
        return OuterConjugate(d, coeffs)
    b = comp.coeffs[j] / drops[j]
    return LocallyInner(j, TorusElement.monomial(ctx, n, d, b))
