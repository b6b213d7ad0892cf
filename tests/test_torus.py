"""Normal-form arithmetic: oracle equivalence, cocycles, membership."""

import random
from itertools import product

import pytest

from skewtor import (
    CommutationMatrix,
    FieldElement,
    InputError,
    ParameterContext,
    SelectiveSpace,
    TorusElement,
    UnitMonomial,
    elem_inv,
    elem_mul,
    elem_scale,
    is_central,
    is_exceptional,
    membership,
    monomial_inverse,
    monomial_mul,
    qrs,
)
from skewtor.presentation import parse_element, parse_unit
from skewtor.torus import exceptional_index

CTX = ParameterContext(["q", "p", "r"])
ONE = UnitMonomial.one(CTX)


def U(text):
    return parse_unit(text, CTX)


QPLANE = CommutationMatrix.single_parameter(CTX, "q", 2)
Q3 = CommutationMatrix.from_upper(
    CTX, 3, {(0, 1): U("q"), (0, 2): U("p"), (1, 2): U("r")}
)


def bubble_oracle(Q, a, b):
    """Reorder the word x^a x^b letter by letter with the defining relations."""
    word = []
    for exps in (a, b):
        for i, k in enumerate(exps):
            sign = 1 if k > 0 else -1
            word.extend([(i, sign)] * abs(k))
    scalar = UnitMonomial.one(Q.ctx)
    changed = True
    while changed:
        changed = False
        for pos in range(len(word) - 1):
            (g, ge), (h, he) = word[pos], word[pos + 1]
            if g > h:
                # x_g^ge x_h^he = q_gh^(ge*he) x_h^he x_g^ge
                scalar = scalar * Q.entry(g, h).pow(ge * he)
                word[pos], word[pos + 1] = word[pos + 1], word[pos]
                changed = True
            elif g == h and ge == -he:
                del word[pos : pos + 2]
                changed = True
                break
    exps = [0] * Q.n
    for g, ge in word:
        exps[g] += ge
    return scalar, tuple(exps)


def test_monomial_mul_defining_relation():
    scalar, exps = monomial_mul(QPLANE, (0, 1), (1, 0))
    assert scalar == U("q^-1") and exps == (1, 1)


def test_monomial_mul_commutative():
    Q = CommutationMatrix.ones(CTX, 3)
    scalar, exps = monomial_mul(Q, (2, -1, 3), (1, 4, -2))
    assert scalar == ONE and exps == (3, 3, 1)


def test_monomial_mul_matches_oracle_exhaustive_n2():
    vals = range(-2, 3)
    for a in product(vals, repeat=2):
        for b in product(vals, repeat=2):
            scalar, exps = monomial_mul(QPLANE, a, b)
            oscalar, oexps = bubble_oracle(QPLANE, a, b)
            assert (scalar, exps) == (oscalar, oexps), (a, b)


def test_monomial_mul_matches_oracle_random_n4():
    rng = random.Random(7)
    pool = ["q", "p", "r", "q^-1", "2", "q*p", "p^-2", "1"]
    for _ in range(120):
        n = rng.randint(1, 4)
        upper = {
            (i, j): U(rng.choice(pool)) for i in range(n) for j in range(i + 1, n)
        }
        Q = CommutationMatrix.from_upper(CTX, n, upper)
        a = tuple(rng.randint(-2, 2) for _ in range(n))
        b = tuple(rng.randint(-2, 2) for _ in range(n))
        assert monomial_mul(Q, a, b) == bubble_oracle(Q, a, b)


def test_cocycle_associativity():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 4)
        upper = {
            (i, j): U(rng.choice(["q", "p", "r", "q^2", "3*p"]))
            for i in range(n)
            for j in range(i + 1, n)
        }
        Q = CommutationMatrix.from_upper(CTX, n, upper)
        a, b, c = (
            tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(3)
        )
        s1, ab = monomial_mul(Q, a, b)
        s2, _ = monomial_mul(Q, ab, c)
        t1, bc = monomial_mul(Q, b, c)
        t2, _ = monomial_mul(Q, a, bc)
        assert s1 * s2 == t1 * t2


def test_qrs_case_a_values():
    d = (-1, 1, 1)
    q1, r1, s1 = qrs(Q3, d, 0)
    assert q1 == U("p^-1*q^-1")
    assert qrs(Q3, d, 1)[0] == U("q^-1*r^-1")
    assert qrs(Q3, d, 2)[0] == U("r*p^-1")
    # x^d x_1 = r_1(d) x^(d+e1) and x_1 x^d = s_1(d) x^(d+e1)
    assert monomial_mul(Q3, d, (1, 0, 0))[0] == r1
    assert monomial_mul(Q3, (1, 0, 0), d)[0] == s1


def test_qrs_single_parameter_family():
    for n in (2, 3, 4, 5):
        Q = CommutationMatrix.single_parameter(CTX, "q", n)
        d = tuple([-1] + [1] * (n - 1))
        assert qrs(Q, d, 0)[0] == U("q").pow(1 - n)
        for i in range(1, n):
            assert qrs(Q, d, i)[0] == U("q").pow(2 * (i + 1) - 3 - n)


def test_qrs_zero_weight():
    for j in range(3):
        assert qrs(Q3, (0, 0, 0), j) == (ONE, ONE, ONE)


def test_qrs_identity_q_equals_r_times_s_inverse():
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randint(1, 4)
        upper = {
            (i, j): U(rng.choice(["q", "p^-1", "r", "q*r", "5"]))
            for i in range(n)
            for j in range(i + 1, n)
        }
        Q = CommutationMatrix.from_upper(CTX, n, upper)
        d = tuple(rng.randint(-3, 3) for _ in range(n))
        j = rng.randrange(n)
        qj, rj, sj = qrs(Q, d, j)
        assert qj == rj * sj.inv()


def E(text, Q=QPLANE, names=("x1", "x2")):
    return parse_element(text, CTX, Q, names)


def test_elem_mul_hand_expansion():
    # (x1 + x2)(x1 - x2) = x1^2 + (1 - q) x2 x1 - x2^2, with x2 x1 = q^-1 x1 x2
    got = elem_mul(QPLANE, E("x1 + x2"), E("x1 - x2"))
    assert got == E("x1^2 + (q^-1 - 1)*x1*x2 - x2^2")


def test_elem_monomial_inverse():
    u = E("x1^2*x2^-1")
    v = elem_inv(QPLANE, u)
    assert elem_mul(QPLANE, u, v) == TorusElement.one(CTX, 2)
    assert elem_mul(QPLANE, v, u) == TorusElement.one(CTX, 2)
    with pytest.raises(InputError):
        elem_inv(QPLANE, E("x1 + x2"))


def test_elem_add_cancellation():
    u = E("q*x1*x2 - x2^2")
    assert (u + elem_scale(FieldElement.rational(CTX, -1), u)).is_zero()


def test_membership():
    space = SelectiveSpace(QPLANE, frozenset({0}))
    assert membership(space, E("x1^-1*x2"))
    assert not membership(space, E("x2^-1"))
    assert membership(space, E("x1^-3 + x1*x2^2"))


def test_membership_closed_under_ops():
    rng = random.Random(17)
    space = SelectiveSpace(Q3, frozenset({1}))
    names = ("x1", "x2", "x3")

    def random_member():
        terms = {}
        for _ in range(rng.randint(1, 3)):
            e = (rng.randint(0, 2), rng.randint(-2, 2), rng.randint(0, 2))
            terms[e] = FieldElement.rational(CTX, rng.randint(1, 5))
        return TorusElement(CTX, 3, terms)

    for _ in range(100):
        u, v = random_member(), random_member()
        assert membership(space, elem_mul(Q3, u, v))
        assert membership(space, u + v)


def test_is_exceptional():
    assert is_exceptional((-1, 1, 1), 0)
    assert not is_exceptional((-1, -1, 0), 0)
    assert is_exceptional((-2, 1, -1), 2, inverted={0})
    assert not is_exceptional((-2, 1, -1), 2)
    assert exceptional_index((-1, 1, 1)) == 0
    assert exceptional_index((-1, -1, 0)) is None
    assert exceptional_index((0, -1, 2), inverted={0}) == 1


def test_is_central():
    space = SelectiveSpace(QPLANE, frozenset())
    assert is_central(space, TorusElement.one(CTX, 2))
    assert not is_central(space, E("x1"))
    comm = SelectiveSpace(CommutationMatrix.ones(CTX, 2), frozenset())
    assert is_central(comm, E("x1*x2 + x2^2", comm.Q))


def test_is_central_agrees_with_commutators():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(1, 3)
        upper = {
            (i, j): U(rng.choice(["q", "1", "q^-1"]))
            for i in range(n)
            for j in range(i + 1, n)
        }
        Q = CommutationMatrix.from_upper(CTX, n, upper)
        space = SelectiveSpace(Q, frozenset())
        u = TorusElement(
            CTX,
            n,
            {
                tuple(rng.randint(-2, 2) for _ in range(n)): FieldElement.rational(
                    CTX, rng.randint(1, 3)
                )
                for _ in range(rng.randint(1, 2))
            },
        )
        direct = all(
            elem_mul(Q, u, TorusElement.generator(CTX, n, j))
            == elem_mul(Q, TorusElement.generator(CTX, n, j), u)
            for j in range(n)
        )
        assert is_central(space, u) == direct


def test_matrix_validation():
    good = [[ONE, U("q")], [U("q^-1"), ONE]]
    CommutationMatrix(CTX, good)
    with pytest.raises(InputError):
        CommutationMatrix(CTX, [[U("q"), U("q")], [U("q^-1"), ONE]])
    with pytest.raises(InputError):
        CommutationMatrix(CTX, [[ONE, U("q")], [U("q"), ONE]])


def test_degenerate_ambients():
    # n = 0: scalars only
    Q0 = CommutationMatrix(CTX, [])
    one = TorusElement.one(CTX, 0)
    assert elem_mul(Q0, one, one) == one
    # n = 1: Laurent polynomials in one variable
    Q1 = CommutationMatrix.ones(CTX, 1)
    u = TorusElement.generator(CTX, 1, 0, -3)
    assert elem_mul(Q1, u, TorusElement.generator(CTX, 1, 0, 3)) == TorusElement.one(CTX, 1)


def test_support_limit_guard(monkeypatch):
    from skewtor.errors import LimitExceeded

    monkeypatch.setenv("SKEWTOR_MAX_DEGREE", "3")
    big = TorusElement(
        CTX,
        2,
        {(i, 0): FieldElement.one(CTX) for i in range(3)},
    )
    with pytest.raises(LimitExceeded):
        elem_mul(QPLANE, big, E("1 + x2 + x2^2"))
    # a bad value is an input error naming the setting, not a silent default
    for bad in ("abc", "0"):
        monkeypatch.setenv("SKEWTOR_MAX_DEGREE", bad)
        with pytest.raises(InputError, match="SKEWTOR_MAX_DEGREE must be a positive"):
            big + big
