"""Random instance generators and reference constructions shared by the
test suites; the engine itself does not need them."""

import json
import random
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Mapping

from skewtor import (
    CommutationMatrix,
    ExprSyntaxError,
    FieldElement,
    HomogeneousComponent,
    Inconsistent,
    IndexOutOfRange,
    NotValidated,
    ParameterContext,
    PresentationFile,
    SkewDerivation,
    ToricAutomorphism,
    TorusElement,
    UnitMonomial,
    apply_auto,
    elem_inv,
    elem_mul,
    elem_scale,
    qrs,
    validate_derivation,
)
from skewtor.exprs import Expr, Pow, Sum, Term
from skewtor.presentation import parse_unit
from skewtor.render import render_element, render_unit

CTX = ParameterContext(["q", "p", "r", "l1"])

UNIT_POOL = ["q", "p", "r", "q^-1", "p^2", "q*p", "2", "3*q", "1", "q^-2*r"]


def U(text):
    return parse_unit(text, CTX)


def matrix_from_upper(
    ctx: ParameterContext, n: int, upper: Mapping[tuple[int, int], UnitMonomial]
) -> CommutationMatrix:
    """Build from entries q_ij for i < j; the rest is forced."""
    one = UnitMonomial.one(ctx)
    rows = [[one] * n for _ in range(n)]
    for (i, j), u in upper.items():
        rows[i][j] = u
        rows[j][i] = u.inv()
    return CommutationMatrix(ctx, rows)


def matrix_of_ones(ctx: ParameterContext, n: int) -> CommutationMatrix:
    """The commutative n x n matrix."""
    return matrix_from_upper(ctx, n, {})


def identity_automorphism(ctx: ParameterContext, n: int) -> ToricAutomorphism:
    """The toric map that fixes every generator."""
    return ToricAutomorphism(ctx, (UnitMonomial.one(ctx),) * n)


def coefficient(u: TorusElement, exps) -> FieldElement:
    """The coefficient of ``x^exps`` in u (zero when absent)."""
    return u.terms.get(tuple(exps), FieldElement.zero(u.ctx))


def render_ast(node: Expr) -> str:
    """Expression tree back to source text; parse(render_ast(t)) == t holds
    structurally for trees produced by parse_with_names."""
    if isinstance(node, Fraction):
        return str(node)
    if isinstance(node, Pow):
        return node.name if node.k == 1 else f"{node.name}^{node.k}"
    if isinstance(node, Term):
        parts = []
        for i, (f, inv) in enumerate(node.factors):
            body = render_ast(f)
            if isinstance(f, Sum) or (isinstance(f, Fraction) and "/" in body and i > 0):
                body = f"({body})"
            if i == 0:
                parts.append(f"1/{body}" if inv else body)
            else:
                parts.append(("/" if inv else "*") + body)
        return "".join(parts)
    if isinstance(node, Sum):
        out = []
        for i, (sign, t) in enumerate(node.terms):
            body = render_ast(t)
            if isinstance(t, Sum):
                body = f"({body})"
            if i == 0:
                out.append(f"-{body}" if sign < 0 else body)
            else:
                out.append((" - " if sign < 0 else " + ") + body)
        return "".join(out)
    raise TypeError(f"not an expression node: {node!r}")


def random_matrix(rng: random.Random, n: int) -> CommutationMatrix:
    upper = {
        (i, j): U(rng.choice(UNIT_POOL)) for i in range(n) for j in range(i + 1, n)
    }
    return matrix_from_upper(CTX, n, upper)


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


def single_parameter(ctx: ParameterContext, name: str, n: int) -> CommutationMatrix:
    """The matrix with q_ij = name for every i < j."""
    q = UnitMonomial.parameter(ctx, name)
    return matrix_from_upper(ctx, n, {(i, j): q for i in range(n) for j in range(i + 1, n)})


def is_exceptional(d, j: int, inverted: Iterable[int] = ()) -> bool:
    """Weight test: d_j = -1 and d_i >= 0 at every other non-inverted index."""
    inv = frozenset(inverted)
    if not 0 <= j < len(d):
        raise IndexOutOfRange(f"index {j} out of range")
    if j in inv:
        raise IndexOutOfRange(f"index {j} is inverted; the test applies off the inverted set")
    if d[j] != -1:
        return False
    return all(x >= 0 for i, x in enumerate(d) if i != j and i not in inv)


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


def validation_oracle(
    d: SkewDerivation,
) -> tuple[tuple[int, int], TorusElement, TorusElement] | None:
    """The first pair (i, j), in row-major order, whose relation
    ``x_i x_j = q_ij x_j x_i`` the images violate, with the two sides, or
    None when every pair holds.  Every generator and eigenvalue is rebuilt
    for each pair, as ``validate_derivation`` did before it built them once."""
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
                return (i, j), lhs, rhs
    return None


def zero_derivation(Q: CommutationMatrix, sigma: ToricAutomorphism) -> SkewDerivation:
    z = TorusElement.zero(Q.ctx, Q.n)
    d = SkewDerivation(Q, sigma, (z,) * Q.n)
    validate_derivation(d)
    return d


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


def component_image(
    comp: HomogeneousComponent, ctx: ParameterContext, j: int
) -> TorusElement:
    """The image of generator j under the component alone."""
    e = list(comp.weight)
    e[j] += 1
    return TorusElement(ctx, len(e), {tuple(e): comp.coeffs[j]})


def render_presentation(pres: PresentationFile) -> str:
    """Serialize back to the canonical JSON form; parse o render is a fixed
    point on files produced by this function."""
    doc: dict = {"parameters": list(pres.ctx.names)}
    if pres.stages is not None:
        stages = []
        for spec in pres.stages:
            entry: dict = {"name": spec.name}
            if spec.rename:
                entry["rename"] = spec.rename
            if spec.sigma_eigs:
                entry["sigma"] = [render_unit(u) for u in spec.sigma_eigs]
            if any(t is not None for t in spec.delta_exprs):
                entry["delta"] = [
                    "0" if t is None else render_ast(t) for t in spec.delta_exprs
                ]
            stages.append(entry)
        doc["stages"] = stages
    if pres.block is not None:
        block = pres.block
        doc["generators"] = list(block.names)
        doc["matrix"] = [
            [render_unit(block.space.Q.entry(i, j)) for j in range(len(block.names))]
            for i in range(len(block.names))
        ]
        doc["inverted"] = [block.names[i] for i in sorted(block.space.inverted)]
        if block.sigma is not None:
            doc["lambda"] = [render_unit(u) for u in block.sigma.lambdas]
        if block.images is not None:
            doc["derivation"] = {
                name: render_element(im, block.names)
                for name, im in zip(block.names, block.images)
                if not im.is_zero()
            }
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def leibniz_oracle(d: SkewDerivation, u: TorusElement) -> TorusElement:
    """The twisted Leibniz extension by recursion, as the engine computed it
    before the closed form: the reference ``extend_derivation`` must match.

    ``d(x^e)`` peels the highest-index generator power first, and
    ``d(x_j^k) = lambda_j x_j d(x_j^(k-1)) + d(x_j) x_j^(k-1)`` with
    ``d(x_j^-1) = -lambda_j^-1 x_j^-1 d(x_j) x_j^-1`` for negative powers.
    """
    Q, sig = d.Q, d.sigma
    ctx, n = Q.ctx, Q.n
    zero = TorusElement.zero(ctx, n)
    power_cache: dict = {}
    mono_cache: dict = {}

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
        out = first
        for k in range(2 * step, m + step, step):
            got = power_cache.get((j, k))
            if got is None:
                rest = TorusElement.generator(ctx, n, j, k - step)
                got = elem_scale(lam, elem_mul(Q, x_step, out)) + elem_mul(Q, first, rest)
                power_cache[(j, k)] = got
            out = got
        return out

    def delta_monomial(e) -> TorusElement:
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


class _OracleParser:
    """The expression parser as it was before it scanned the text once:
    (kind, text, position) tokens from ``tokenize_oracle``, read through
    ``peek`` and ``next``."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize_oracle(text)
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ExprSyntaxError(f"expected {op!r}", self.text, pos)

    def integer(self, digits: str, pos: int) -> int:
        try:
            return int(digits)
        except ValueError:  # more digits than the interpreter converts
            raise ExprSyntaxError("integer literal too long", self.text, pos) from None

    def parse(self) -> Expr:
        try:
            node = self.expr()
        except RecursionError:
            raise ExprSyntaxError("expression nested too deeply", self.text, self.peek()[2]) from None
        kind, _, pos = self.peek()
        if kind != "eof":
            raise ExprSyntaxError("trailing input", self.text, pos)
        return node

    def expr(self) -> Expr:
        terms: list[tuple[int, Expr]] = []
        sign = 1
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.next()
            sign = -1
        terms.append((sign, self.term()))
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                terms.append((1 if val == "+" else -1, self.term()))
            else:
                break
        if len(terms) == 1 and terms[0][0] == 1:
            return terms[0][1]
        return Sum(tuple(terms))

    def term(self) -> Expr:
        factors: list[tuple[Expr, bool]] = [(self.atom(), False)]
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                factors.append((self.atom(), val == "/"))
            else:
                break
        if len(factors) == 1 and not factors[0][1]:
            return factors[0][0]
        return Term(tuple(factors))

    def atom(self) -> Expr:
        kind, val, pos = self.next()
        if kind == "int":
            return Fraction(self.integer(val, pos))
        if kind == "name":
            k = 1
            kind2, val2, _ = self.peek()
            if kind2 == "op" and val2 == "^":
                self.next()
                neg = False
                kind3, val3, pos3 = self.next()
                if kind3 == "op" and val3 == "-":
                    neg = True
                    kind3, val3, pos3 = self.next()
                if kind3 != "int":
                    raise ExprSyntaxError("expected integer exponent", self.text, pos3)
                k = self.integer(val3, pos3)
                if neg:
                    k = -k
            return Pow(val, k)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError("expected a number, name or '('", self.text, pos)


def names_in(node: Expr) -> set[str]:
    """The names of a tree, found by walking it."""
    if isinstance(node, Pow):
        return {node.name}
    if isinstance(node, Term):
        out: set[str] = set()
        for f, _ in node.factors:
            out |= names_in(f)
        return out
    if isinstance(node, Sum):
        out = set()
        for _, t in node.terms:
            out |= names_in(t)
        return out
    return set()


def parse_oracle(text: str) -> tuple[Expr, set[str]]:
    """The tree of ``text`` and its names, from the parser and the tree walk
    the engine used before it collected names while parsing one scan."""
    tree = _OracleParser(text).parse()
    return tree, names_in(tree)


BENCH = Path(__file__).resolve().parent.parent / "bench"


def bench_families():
    """The benchmark's instance generators, ``bench/families.py``."""
    sys.path.insert(0, str(BENCH))
    try:
        import families
    finally:
        sys.path.remove(str(BENCH))
    return families


def pairwise_compat(
    comp: HomogeneousComponent, sig: ToricAutomorphism, Q: CommutationMatrix
) -> list[FieldElement]:
    """The coefficient identity ``a_i drop_j = a_j drop_i`` checked on every
    pair, as the engine did before it checked against one pivot: returns
    the drops ``r_j - l_j s_j`` or raises ``Inconsistent`` naming the first
    failing pair."""
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


def power_by_multiplication(Q: CommutationMatrix, u: TorusElement, k: int) -> TorusElement:
    """``u^k`` one ``elem_mul`` at a time (a negative k inverts u first), as
    ``elem_pow`` computed every power before its single-term closed form."""
    if k < 0:
        return power_by_multiplication(Q, elem_inv(Q, u), -k)
    out = TorusElement.one(u.ctx, u.n)
    for _ in range(k):
        out = elem_mul(Q, out, u)
    return out
