"""Toric automorphisms, skew derivations, and their classification.

A toric automorphism scales each generator by a unit.  A skew derivation is
determined by the images of the canonical generators and extends everywhere
by the twisted Leibniz rule ``d(uv) = sigma(u) d(v) + d(u) v``, with
``d(x^-1) = -sigma(x)^-1 d(x) x^-1`` on inverted generators.  On the torus
this is a closed form: a term ``a x^(w+e_j)`` of ``d(x_j)`` sends ``x_j^m`` to
``a r_j(w)^(m-1) [m]_chi x^(w + m e_j)`` for the character
``chi = lambda_j / q_j(w)``, and ``extend_derivation`` applies it.

Every validated derivation splits into homogeneous components, one per
weight vector.  A component ``x_j -> a_j x^(d+e_j)`` has coefficients
proportional to its drops ``drop_j = r_j(d) - lambda_j s_j(d)``: the identity
``a_i drop_j = a_j drop_i`` for every pair is the same as
``a_i drop_p = a_p drop_i`` for every i, with p the first index whose drop is
nonzero, so each component is checked against that one pivot.  For a fixed
weight exactly one of two things happens: some commutation cocycle ``q_j(d)``
differs from the eigenvalue ``lambda_j`` and the component is inner (or
locally inner at a single generator when the weight dips to -1 there), or
all cocycles match the eigenvalues and the component is conjugate to an
honest derivation.  In the second case the weight itself witnesses that the
automorphism is inner on the torus: it is conjugation by ``x^-d``.
``classify_component`` decides the case exactly.
"""

from __future__ import annotations

from typing import Sequence

from .errors import Inconsistent, InputError, NotADerivation, NotValidated
from .record import Record
from .scalars import (
    FieldElement,
    LaurentPoly,
    ParameterContext,
    UnitMonomial,
    enforce_cap,
    um_prod,
)
from .torus import (
    CommutationMatrix,
    ExponentVec,
    SelectiveSpace,
    TorusElement,
    elem_mul,
    elem_scale,
    exceptional_index,
    monomial_mul,
    qrs,
)


class ToricAutomorphism:
    """Scales generator i by the unit lambdas[i]; acts on x^d by prod(l_i^d_i)."""

    __slots__ = ("ctx", "lambdas")

    def __init__(self, ctx: ParameterContext, lambdas: Sequence[UnitMonomial]):
        self.ctx = ctx
        self.lambdas = tuple(lambdas)

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
    """Scale each monomial x^d by its eigenvalue under ``sig``."""
    return TorusElement(
        u.ctx, u.n, {e: c.times_unit(sig.eigenvalue(e)) for e, c in u.terms.items()}
    )


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


def validate_derivation(d: SkewDerivation) -> None:
    """Check compatibility with every relation x_i x_j = q_ij x_j x_i.

    Raises ``NotADerivation`` naming the first failing pair (i, j), with the
    two differing sides as ``lhs`` and ``rhs``; on success marks the
    derivation validated.  Together with the inverse-generator rule this pins
    down a well-defined map on the whole torus.  The generators and the
    eigenvalues as field elements are built once, not once per pair.
    """
    Q, sig = d.Q, d.sigma
    ctx, n = Q.ctx, Q.n
    xs = [TorusElement.generator(ctx, n, i) for i in range(n)]
    lams = [FieldElement.from_unit(lam) for lam in sig.lambdas]
    for i in range(n):
        xi, lam_i, im_i = xs[i], lams[i], d.images[i]
        for j in range(i + 1, n):
            xj, im_j = xs[j], d.images[j]
            lhs = elem_scale(lam_i, elem_mul(Q, xi, im_j)) + elem_mul(Q, im_i, xj)
            qij = FieldElement.from_unit(Q.entry(i, j))
            rhs = elem_scale(
                qij, elem_scale(lams[j], elem_mul(Q, xj, im_i)) + elem_mul(Q, im_j, xi)
            )
            if lhs != rhs:
                raise NotADerivation(
                    f"generator images violate the relation between {i} and {j}",
                    pair=(i, j),
                    lhs=lhs,
                    rhs=rhs,
                )
    d._validated = True


def _bracket(chi: UnitMonomial, m: int) -> FieldElement:
    """``[m]_chi``: ``1 + chi + ... + chi^(m-1)`` for m > 0 and
    ``-(chi^-1 + ... + chi^m)`` for m < 0; ``[m]_1 = m``.

    Any other chi sums |m| powers, so an |m| above the cap raises
    ``LimitExceeded`` before the loop starts.
    """
    ctx = chi.ctx
    if chi == UnitMonomial.one(ctx):
        return FieldElement.rational(ctx, m)
    enforce_cap(abs(m), "q-bracket length")
    terms = {}
    for k in range(m) if m > 0 else range(m, 0):
        p = chi.pow(k)
        terms[p.exps] = terms.get(p.exps, 0) + (p.coeff if m > 0 else -p.coeff)
    return FieldElement(LaurentPoly(ctx, terms), LaurentPoly.one(ctx))


def extend_derivation(d: SkewDerivation, u: TorusElement) -> TorusElement:
    """Apply the derivation to an arbitrary element, in closed form.

    Peeling generator powers from the highest index down gives
    ``d(x^e) = sum_j sigma(x^(e_<j)) d(x_j^(e_j)) x^(e_>j)`` over the j with
    ``e_j != 0``.  A term ``a x^(w+e_j)`` of ``d(x_j)`` contributes
    ``a r_j(w)^-1 [m]_chi x^w x_j^m = a r_j(w)^(m-1) [m]_chi x^(w + m e_j)``
    to ``d(x_j^m)``, with ``chi = lambda_j s_j(w) / r_j(w) = lambda_j / q_j(w)``
    from ``qrs`` and ``[m]_chi`` as in ``_bracket``.  Scalars map to zero.
    Each ``d(x^e)`` is summed before it is scaled by the coefficient of x^e,
    as the recursive Leibniz rule does, so fractions keep the same form.
    """
    if not d._validated:
        raise NotValidated("validate_derivation must pass before extension")
    Q, sig = d.Q, d.sigma
    ctx, n = Q.ctx, Q.n
    # per term a x^v of d(x_j): v, a, r_j, chi and the memo m -> a [m]_chi,
    # seeded with [1]_chi = 1; the cocycles at j do not read index j, so those
    # of v = w + e_j are those of w
    terms: dict[int, list[tuple]] = {}
    for j in {j for e in u.terms for j, m in enumerate(e) if m}:
        terms[j] = []
        for v, a in d.images[j].terms.items():
            q, r, _ = qrs(Q, v, j)
            chi = um_prod(ctx, ((sig.lambdas[j], 1), (q, -1)))
            terms[j].append((v, a, r, chi, {1: a}))
    result = TorusElement.zero(ctx, n)
    for e, c in u:
        de: dict[ExponentVec, FieldElement] = {}  # d(x^e)
        for j, m in enumerate(e):
            if not m:
                continue
            head, tail = e[:j] + (0,) * (n - j), (0,) * (j + 1) + e[j + 1 :]
            lam_head = sig.eigenvalue(head)
            for v, a, r, chi, scaled in terms[j]:
                b = scaled.get(m)
                if b is None:
                    b = scaled[m] = a * _bracket(chi, m)
                mu1, f = monomial_mul(Q, head, v[:j] + (v[j] - 1 + m,) + v[j + 1 :])
                mu2, f = monomial_mul(Q, f, tail)
                unit = um_prod(ctx, ((lam_head, 1), (r, m - 1), (mu1, 1), (mu2, 1)))
                term = b.times_unit(unit)
                s = de.get(f)
                s = term if s is None else s + term
                if s.is_zero():
                    del de[f]
                else:
                    de[f] = s
        result = result + elem_scale(c, TorusElement(ctx, n, de))
    return result


class HomogeneousComponent(Record):
    """The weight-d part: generator j maps to coeffs[j] * x^(d + e_j)."""

    __slots__ = ("weight", "coeffs")

    def __init__(self, weight: ExponentVec, coeffs: tuple[FieldElement, ...]):
        self.weight = weight
        self.coeffs = coeffs


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


class ComponentReport(Record):
    """The verdict on one homogeneous component.

    ``kind`` is "inner", "locally_inner" (at generator ``j``) or
    "outer_conjugate"; ``inducer`` is the torus element inducing an inner or
    locally inner component, and None for one conjugate to a derivation.
    """

    __slots__ = ("weight", "kind", "j", "inducer")

    def __init__(
        self, weight: ExponentVec, kind: str, j: int | None, inducer: TorusElement | None
    ):
        self.weight = weight
        self.kind = kind
        self.j = j
        self.inducer = inducer


def _check_compat(
    comp: HomogeneousComponent, sig: ToricAutomorphism, Q: CommutationMatrix
) -> list[FieldElement]:
    """Verify the pairwise coefficient identity against the pivot p, the
    first nonzero drop; return the drops ``r_j - l_j s_j``.

    The identity holds trivially when every drop is zero.  The first i that
    fails ``a_i drop_p = a_p drop_i`` also gives the first failing pair in
    row-major order: (i, p) for i < p, since the drops before p vanish, and
    (p, i) for i > p.
    """
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
    p = next((j for j in range(n) if not drops[j].is_zero()), None)
    if p is not None:
        for i in range(n):
            if i != p and a[i] * drops[p] != a[p] * drops[i]:
                i, j = min(i, p), max(i, p)
                raise Inconsistent(
                    f"coefficient identity fails for pair ({i}, {j}) at weight {d}"
                )
    return drops


def classify_component(
    comp: HomogeneousComponent, sig: ToricAutomorphism, space: SelectiveSpace
) -> ComponentReport:
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
            return ComponentReport(d, "outer_conjugate", None, None)
        j = next(i for i in range(n) if not comp.coeffs[i].is_zero())
        if matches[j]:
            raise Inconsistent(
                f"nonzero image at generator {j} with vanishing drop at weight {d}"
            )
        b = comp.coeffs[j] / drops[j]
        return ComponentReport(d, "inner", None, TorusElement.monomial(ctx, n, d, b))

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
        return ComponentReport(d, "outer_conjugate", None, None)
    b = comp.coeffs[j] / drops[j]
    return ComponentReport(d, "locally_inner", j, TorusElement.monomial(ctx, n, d, b))
