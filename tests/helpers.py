"""Random instance generators shared by the derivation test suites."""

import random
import re

from skewtor import (
    CommutationMatrix,
    ExprSyntaxError,
    FieldElement,
    ParameterContext,
    SkewDerivation,
    ToricAutomorphism,
    TorusElement,
    UnitMonomial,
    inner_derivation,
    qrs,
    validate_derivation,
)
from skewtor.presentation import parse_unit

CTX = ParameterContext(["q", "p", "r", "l1"])

UNIT_POOL = ["q", "p", "r", "q^-1", "p^2", "q*p", "2", "3*q", "1", "q^-2*r"]


def U(text):
    return parse_unit(text, CTX)


def random_matrix(rng: random.Random, n: int) -> CommutationMatrix:
    upper = {
        (i, j): U(rng.choice(UNIT_POOL)) for i in range(n) for j in range(i + 1, n)
    }
    return CommutationMatrix.from_upper(CTX, n, upper)


def random_unit(rng: random.Random) -> UnitMonomial:
    return U(rng.choice(UNIT_POOL))


def random_auto(rng: random.Random, n: int) -> ToricAutomorphism:
    return ToricAutomorphism(CTX, tuple(random_unit(rng) for _ in range(n)))


def random_element(
    rng: random.Random, n: int, n_terms: int = 2, bound: int = 3, coeff_pool=None
) -> TorusElement:
    terms = {}
    for _ in range(rng.randint(1, n_terms)):
        e = tuple(rng.randint(-bound, bound) for _ in range(n))
        c = FieldElement.rational(CTX, rng.choice([1, -1, 2, 3]))
        if coeff_pool:
            c = c * FieldElement.from_unit(U(rng.choice(coeff_pool)))
        terms[e] = c
    return TorusElement(CTX, n, terms)


def random_inner_derivation(
    rng: random.Random, Q: CommutationMatrix, sig: ToricAutomorphism
) -> SkewDerivation:
    """A random sum of inner derivations; always valid."""
    a = random_element(rng, Q.n, n_terms=2, bound=2, coeff_pool=["q", "p", "1"])
    return inner_derivation(Q, sig, a)


def sigma_made_inner(rng: random.Random, Q: CommutationMatrix, d) -> ToricAutomorphism:
    """The toric map that x^-d induces by conjugation: lambda_j = q_j(d)."""
    return ToricAutomorphism(CTX, tuple(qrs(Q, d, j)[0] for j in range(Q.n)))


def outer_derivation(
    Q: CommutationMatrix, sig: ToricAutomorphism, d, j: int
) -> SkewDerivation:
    """The derivation sending x_j to x^(d+e_j) and the others to zero.

    Valid exactly when sigma is induced by x^-d; callers arrange that.
    """
    n = Q.n
    images = [TorusElement.zero(CTX, n) for _ in range(n)]
    e = list(d)
    e[j] += 1
    images[j] = TorusElement.monomial(CTX, n, tuple(e))
    der = SkewDerivation(Q, sig, images)
    assert validate_derivation(der) is None
    return der


_ORACLE_TOKEN = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()]))"
)


def tokenize_oracle(text: str) -> list[tuple[str, str, int]]:
    """The expression tokens of ``text``, one anchored match at a time.

    This is the tokenizer the parser used before it scanned the text in one
    pass; tests compare the two on random strings.
    """
    tokens = []
    pos = 0
    while pos < len(text):
        m = _ORACLE_TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ExprSyntaxError("unexpected character", text, pos)
            break
        if m.group("int"):
            tokens.append(("int", m.group("int"), m.start()))
        elif m.group("name"):
            tokens.append(("name", m.group("name"), m.start()))
        else:
            tokens.append(("op", m.group("op"), m.start()))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens
