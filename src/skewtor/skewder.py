"""Toric automorphisms, skew derivations, and their classification.

A toric automorphism scales each generator by a unit.  A skew derivation is
determined by the images of the canonical generators and extends everywhere
by the twisted Leibniz rule ``d(uv) = sigma(u) d(v) + d(u) v``, with
``d(x^-1) = -sigma(x)^-1 d(x) x^-1`` on inverted generators.

Every validated derivation splits into homogeneous components, one per
weight vector.  For a fixed weight exactly one of two things happens: some
commutation cocycle ``q_j(d)`` differs from the eigenvalue ``lambda_j`` and
the component is inner (or locally inner at a single generator when the
weight dips to -1 there), or all cocycles match the eigenvalues, the
automorphism is inner on the torus, and the component is conjugate to an
honest derivation.  ``classify_component`` decides the case exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import Inconsistent, InputError, NotValidated
from .lattice import solve_integer_system
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
    indicator,
    is_central,
    monomial_inverse,
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
        return um_prod(self.ctx, (l.pow(k) for l, k in zip(self.lambdas, d) if k))

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
        if m == 0:
            return zero
        key = (j, m)
        got = power_cache.get(key)
        if got is not None:
            return got
        xj = TorusElement.generator(ctx, n, j)
        lam = FieldElement.from_unit(sig.lambdas[j])
        if m == 1:
            out = d.images[j]
        elif m > 1:
            rest = TorusElement.generator(ctx, n, j, m - 1)
            out = elem_scale(lam, elem_mul(Q, xj, delta_power(j, m - 1))) + elem_mul(
                Q, d.images[j], rest
            )
        elif m == -1:
            xj_inv = TorusElement.generator(ctx, n, j, -1)
            out = -elem_scale(
                lam.inv(), elem_mul(Q, xj_inv, elem_mul(Q, d.images[j], xj_inv))
            )
        else:
            xj_inv = TorusElement.generator(ctx, n, j, -1)
            rest = TorusElement.generator(ctx, n, j, m + 1)
            out = elem_scale(
                lam.inv(), elem_mul(Q, xj_inv, delta_power(j, m + 1))
            ) + elem_mul(Q, delta_power(j, -1), rest)
        power_cache[key] = out
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


@dataclass(frozen=True)
class ZeroDerivation:
    pass


Classification = Inner | LocallyInner | OuterConjugate | ZeroDerivation


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
        return ZeroDerivation()
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


def sigma_inner_witness(
    sig: ToricAutomorphism, Q: CommutationMatrix
) -> ExponentVec | None:
    """Find d with q_j(d) = lambda_j for all j, so sigma is induced by x^-d.

    The multiplicative system splits into an integer-linear layer on the
    parameter exponents, one on the prime factorizations of the rational
    coefficients, and a sign layer handled with slack variables.  Solved by
    integer elimination; the returned vector is checked against ``qrs``.
    """
    n = Q.n
    ctx = Q.ctx
    rows: list[list[int]] = []
    rhs: list[int] = []
    primes: set[int] = set()

    def factorize(c: Fraction) -> dict[int, int]:
        out: dict[int, int] = {}
        for val, sign in ((c.numerator, 1), (c.denominator, -1)):
            val = abs(val)
            p = 2
            while p * p <= val:
                while val % p == 0:
                    out[p] = out.get(p, 0) + sign
                    val //= p
                p += 1
            if val > 1:
                out[val] = out.get(val, 0) + sign
        return out

    coeff_fact: dict[tuple[int, int], dict[int, int]] = {}
    lam_fact: list[dict[int, int]] = []
    for j in range(n):
        for k in range(n):
            f = factorize(Q.entry(k, j).coeff)
            coeff_fact[(k, j)] = f
            primes |= set(f)
        f = factorize(sig.lambdas[j].coeff)
        lam_fact.append(f)
        primes |= set(f)

    sign_rows: list[tuple[list[int], int]] = []
    for j in range(n):
        for p in range(len(ctx)):
            rows.append([Q.entry(k, j).exps[p] for k in range(n)])
            rhs.append(sig.lambdas[j].exps[p])
        for prime in sorted(primes):
            rows.append([coeff_fact[(k, j)].get(prime, 0) for k in range(n)])
            rhs.append(lam_fact[j].get(prime, 0))
        sign_rows.append(
            (
                [1 if Q.entry(k, j).coeff < 0 else 0 for k in range(n)],
                1 if sig.lambdas[j].coeff < 0 else 0,
            )
        )

    # sign conditions hold mod 2: add one slack column per condition
    n_slack = len(sign_rows)
    full_rows = [row + [0] * n_slack for row in rows]
    for idx, (srow, sbit) in enumerate(sign_rows):
        slack = [0] * n_slack
        slack[idx] = 2
        full_rows.append(srow + slack)
        rhs.append(sbit)

    sol = solve_integer_system(full_rows, rhs, minimize_prefix=n)
    if sol is None:
        return None
    d = tuple(sol[:n])
    one = UnitMonomial.one(ctx)
    for j in range(n):
        if qrs(Q, d, j)[0] * sig.lambdas[j].inv() != one:
            raise Inconsistent("lattice solver returned an invalid witness")
    return d


# -- Ore extension type of the full torus -------------------------------------


@dataclass(frozen=True)
class AutomorphismType:
    """The extension rewrites as automorphism type with variable z - shift."""

    shift: TorusElement


@dataclass(frozen=True)
class DerivationType:
    """Rewrites as derivation type; multipliers are central, one per generator.

    The new variable is x^-witness * (z - shift) and the derivation it
    carries sends x_i to multipliers[i] * x_i.
    """

    witness: ExponentVec
    shift: TorusElement
    multipliers: tuple[TorusElement, ...]


def classify_extension(
    sig: ToricAutomorphism, d: SkewDerivation, Q: CommutationMatrix
) -> AutomorphismType | DerivationType:
    """Type of T[z; sigma, d] over the full torus (everything inverted)."""
    if not d._validated:
        raise NotValidated("validate_derivation must pass first")
    ctx, n = Q.ctx, Q.n
    torus = SelectiveSpace(Q, frozenset(range(n)))
    witness = sigma_inner_witness(sig, Q)
    comps = decompose_homogeneous(d)
    shift = TorusElement.zero(ctx, n)
    outer: list[HomogeneousComponent] = []
    for comp in comps:
        cls = classify_component(comp, sig, torus)
        if isinstance(cls, Inner):
            shift = shift + cls.inducer
        elif isinstance(cls, OuterConjugate):
            outer.append(comp)
        # LocallyInner cannot occur: everything is inverted on the torus
    if witness is None:
        if outer:
            raise Inconsistent(
                "outer automorphism with a conjugate-to-derivation component at "
                f"weight {outer[0].weight}"
            )
        return AutomorphismType(shift)

    winv = monomial_inverse(Q, witness)
    multipliers = []
    for i in range(n):
        zi = TorusElement.zero(ctx, n)
        for comp in outer:
            zi = zi + elem_mul(
                Q,
                elem_mul(Q, winv, comp.image(ctx, i)),
                monomial_inverse(Q, indicator(n, (i,))),
            )
        if not is_central(torus, zi):
            raise Inconsistent(f"derivation multiplier for generator {i} is not central")
        multipliers.append(zi)
    return DerivationType(witness, shift, tuple(multipliers))
