"""Elements of the Ore extension of a torus by one variable z.

Elements are left-coefficient polynomials ``sum t_k z^k`` with torus
coefficients and the mixed relation ``z r = sigma(r) z + delta(r)``.  The
engine uses this type only as the record of a Weyl witness ``u, p``, which
has degree at most 1 in z; it checks its certificates as torus identities.
The general product below is the independent reference that the tests
compare those checks against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .skewder import SkewDerivation, apply_auto, extend_derivation
from .torus import TorusElement, elem_mul, elem_scale


@dataclass(frozen=True)
class OreElement:
    """Polynomial in z over the torus; coeffs maps z-degree to coefficient."""

    delta: SkewDerivation
    coeffs: tuple[tuple[int, TorusElement], ...]

    @classmethod
    def make(cls, delta: SkewDerivation, coeffs: Mapping[int, TorusElement]) -> OreElement:
        clean = {k: v for k, v in coeffs.items() if not v.is_zero()}
        if any(k < 0 for k in clean):
            raise ValueError("negative z-degree")
        return cls(delta, tuple(sorted(clean.items())))

    @classmethod
    def from_torus(cls, delta: SkewDerivation, t: TorusElement) -> OreElement:
        return cls.make(delta, {0: t})

    @classmethod
    def variable(cls, delta: SkewDerivation) -> OreElement:
        one = TorusElement.one(delta.ctx, delta.n)
        return cls.make(delta, {1: one})

    def as_dict(self) -> dict[int, TorusElement]:
        return dict(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: OreElement) -> OreElement:
        out = self.as_dict()
        for k, v in other.coeffs:
            out[k] = out[k] + v if k in out else v
        return OreElement.make(self.delta, out)

    def __neg__(self) -> OreElement:
        return OreElement.make(self.delta, {k: -v for k, v in self.coeffs})

    def __sub__(self, other: OreElement) -> OreElement:
        return self + (-other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, OreElement):
            return NotImplemented
        a, b = self.as_dict(), other.as_dict()
        if set(a) != set(b):
            return False
        return all(a[k] == b[k] for k in a)

    def _z_times(self, t: TorusElement) -> OreElement:
        # z * t = sigma(t) z + delta(t)
        return OreElement.make(
            self.delta,
            {1: apply_auto(self.delta.sigma, t), 0: extend_derivation(self.delta, t)},
        )

    def __mul__(self, other: OreElement) -> OreElement:
        delta = self.delta
        Q = delta.Q
        total: dict[int, TorusElement] = {}
        for k, t in self.coeffs:
            # compute z^k * other, then left-multiply by t
            part = other
            for _ in range(k):
                acc: dict[int, TorusElement] = {}
                for deg, coef in part.coeffs:
                    zm = self._z_times(coef)
                    for d2, c2 in zm.coeffs:
                        key = deg + d2
                        acc[key] = acc[key] + c2 if key in acc else c2
                part = OreElement.make(delta, acc)
            for deg, coef in part.coeffs:
                v = elem_mul(Q, t, coef)
                total[deg] = total[deg] + v if deg in total else v
        return OreElement.make(delta, total)

    def scale(self, c) -> OreElement:
        return OreElement.make(
            self.delta, {k: elem_scale(c, v) for k, v in self.coeffs}
        )
