"""Presentation generators for the benchmark workloads.

Each generator returns a presentation as a JSON-ready dict; ``affine`` and
``weyl`` return with it the facts the independent checks need (the generated
matrix, the drawn weight and Weyl generator).  Unit scalars are written in the
canonical form the engine prints, so an expected report can be compared as
text.  Nothing here imports ``skewtor``: the generators are an oracle
independent of the engine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

PARAMS = ("q", "p", "r")

# unit coefficients drawn for affine and weyl matrices; mostly 1 so that the
# cost of an instance depends little on the seed
_UNIT_COEFFS = (1, 1, 1, 1, -1, 2, Fraction(1, 2))
_UNIT_EXP_RANGE = (-1, 0, 1)


@dataclass(frozen=True)
class Unit:
    """A unit scalar ``coeff * q^e0 * p^e1 * r^e2``."""

    coeff: Fraction
    exps: tuple[int, ...]

    def __mul__(self, other: Unit) -> Unit:
        return Unit(self.coeff * other.coeff, tuple(a + b for a, b in zip(self.exps, other.exps)))

    def inv(self) -> Unit:
        return Unit(1 / self.coeff, tuple(-e for e in self.exps))

    def pow(self, k: int) -> Unit:
        return Unit(self.coeff**k, tuple(k * e for e in self.exps))

    def render(self) -> str:
        """The engine's printed form: magnitude first unless 1, then powers."""
        mag = abs(self.coeff)
        parts = [n if e == 1 else f"{n}^{e}" for n, e in zip(PARAMS, self.exps) if e]
        if not parts:
            body = str(mag)
        else:
            if mag != 1:
                parts.insert(0, str(mag))
            body = "*".join(parts)
        return f"-{body}" if self.coeff < 0 else body


def one() -> Unit:
    return Unit(Fraction(1), (0,) * len(PARAMS))


def _draw_unit(rng: random.Random) -> Unit:
    return Unit(
        Fraction(rng.choice(_UNIT_COEFFS)),
        tuple(rng.choice(_UNIT_EXP_RANGE) for _ in PARAMS),
    )


def _monomial_text(exps: tuple[int, ...], names: list[str]) -> str:
    parts = [n if k == 1 else f"{n}^{k}" for n, k in zip(names, exps) if k]
    return "*".join(parts) if parts else "1"


# -- O_q(M_n) ------------------------------------------------------------------


def qmat_order(n: int) -> list[tuple[int, int]]:
    """Shell order: for m = 1..n, x_{i,m} for i < m, then x_{m,j} for j <= m."""
    order = []
    for m in range(1, n + 1):
        order.extend((i, m) for i in range(1, m))
        order.extend((m, j) for j in range(1, m + 1))
    return order


def qmat(n: int) -> dict:
    """Quantum n x n matrices as an iterated Ore extension in shell order."""
    order = qmat_order(n)
    stages = []
    for k, (l, m) in enumerate(order):
        stage: dict = {"name": f"x{l}{m}"}
        sigma, delta = [], []
        for i, j in order[:k]:
            if i == l or j == m:
                sigma.append("q^-1")
                delta.append("0")
            elif i < l and j < m:
                sigma.append("1")
                delta.append(f"(q^-1 - q)*x{i}{m}*x{l}{j}")
            else:
                sigma.append("1")
                delta.append("0")
        if sigma:
            stage["sigma"] = sigma
        if any(d != "0" for d in delta):
            stage["rename"] = f"y{l}{m}"
            stage["delta"] = delta
        stages.append(stage)
    return {"parameters": ["q"], "stages": stages}


# -- quantum affine spaces -------------------------------------------------------


@dataclass(frozen=True)
class Affine:
    presentation: dict
    names: tuple[str, ...]
    matrix: tuple[tuple[Unit, ...], ...]  # row k, column i: x_k x_i = m[k][i] x_i x_k


def _affine_matrix(rng: random.Random, n: int) -> list[list[Unit]]:
    m = [[one() for _ in range(n)] for _ in range(n)]
    for k in range(n):
        for i in range(k):
            u = _draw_unit(rng)
            m[k][i] = u
            m[i][k] = u.inv()
    return m


def affine(seed: int, n: int) -> Affine:
    """A multiparameter quantum affine space: n stages, every delta zero."""
    rng = random.Random(f"affine-{seed}-{n}")
    names = tuple(f"x{k + 1}" for k in range(n))
    m = _affine_matrix(rng, n)
    stages = []
    for k, name in enumerate(names):
        stage: dict = {"name": name}
        if k:
            stage["sigma"] = [m[k][i].render() for i in range(k)]
        stages.append(stage)
    return Affine(
        {"parameters": list(PARAMS), "stages": stages},
        names,
        tuple(tuple(row) for row in m),
    )


# -- Weyl instances ------------------------------------------------------------------

# coefficients of the inner part ``a``; several parameters each, so scalar
# fractions stay multivariate
_A_COEFFS = ("1", "2", "3", "q*p", "p^-1*r", "(q + p)", "(r - 2*q)", "1/2*r")


@dataclass(frozen=True)
class Weyl:
    presentation: dict
    weight: tuple[int, ...]  # d: the weight of the outer component
    p_name: str  # x_{j0}: the generator the witness must use as p


def _q_cocycle(m: list[list[Unit]], d: tuple[int, ...], j: int) -> Unit:
    """q_j(d) with x^d x_j = q_j(d) x_j x^d, from the matrix alone."""
    out = one()
    for k, dk in enumerate(d):
        if dk and k != j:
            out = out * m[k][j].pow(dk)
    return out


def weyl(seed: int, index: int = 0, base: int = 8, a_terms: int = 20) -> Weyl:
    """A quantum affine base, then z with delta = ad_a + one outer component.

    sigma on x_j is q_j(d), so the weight-d component x_{j0} -> x^(d + e_{j0})
    is conjugate to a derivation and the stage ends in a Weyl witness with
    weight d and p = x_{j0}.  Each instance has exactly one outer component:
    several of them on one generator is the defect ``item4_reproducer`` shows.
    """
    rng = random.Random(f"weyl-{seed}-{index}-{base}-{a_terms}")
    names = [f"x{k + 1}" for k in range(base)]
    m = _affine_matrix(rng, base)
    # every draw has the same shape (weight of degree 2, two-generator terms,
    # one fixed multiset of coefficients) so that instances cost about the same
    picked = rng.sample(range(base), 2)
    d = tuple(1 if k in picked else 0 for k in range(base))
    j0 = rng.randrange(base)
    support: set[tuple[int, ...]] = set()
    while len(support) < a_terms:
        e = [0] * base
        for k in rng.sample(range(base), 2):
            e[k] = rng.randint(1, 2)
        if tuple(e) != d:
            support.add(tuple(e))
    coeffs = list((_A_COEFFS * a_terms)[:a_terms])
    rng.shuffle(coeffs)
    a = ""
    for e, c in zip(sorted(support), coeffs):
        sign = rng.choice(("+", "-"))
        term = f"{c}*{_monomial_text(e, names)}"
        a = (f"-{term}" if sign == "-" else term) if not a else f"{a} {sign} {term}"
    lam = [_q_cocycle(m, d, j) for j in range(base)]
    lead = _monomial_text(tuple(dk + (k == j0) for k, dk in enumerate(d)), names)
    delta = []
    for j, name in enumerate(names):
        entry = f"({a})*{name} - ({lam[j].render()})*{name}*({a})"
        if j == j0:
            entry += f" + {lead}"
        delta.append(entry)
    stages = [{"name": names[0]}]
    for k in range(1, base):
        stages.append({"name": names[k], "sigma": [m[k][i].render() for i in range(k)]})
    stages.append({"name": "z", "sigma": [u.render() for u in lam], "delta": delta})
    return Weyl({"parameters": list(PARAMS), "stages": stages}, d, names[j0])


def item4_reproducer() -> dict:
    """K[x1, x2] and z with sigma = id, delta(x1) = 1 + x2: two outer
    components on one generator (a valid Weyl input)."""
    return {
        "parameters": [],
        "stages": [
            {"name": "x1"},
            {"name": "x2", "sigma": ["1"]},
            {"name": "z", "sigma": ["1", "1"], "delta": ["1 + x2", "0"]},
        ],
    }
