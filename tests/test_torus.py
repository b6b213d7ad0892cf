"""Normal-form arithmetic: oracle equivalence, cocycles, membership."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    membership,
    monomial_inverse,
    monomial_mul,
    qrs,
)
from skewtor import torus
from skewtor.presentation import parse_element, parse_scalar, parse_unit
from skewtor.render import render_element
from skewtor.scalars import max_support_from_environment
from skewtor.torus import elem_pow, exceptional_index

from helpers import (
    is_exceptional,
    matrix_from_upper,
    matrix_of_ones,
    power_by_multiplication,
    single_parameter,
)

CTX = ParameterContext(["q", "p", "r"])
ONE = UnitMonomial.one(CTX)


def U(text):
    return parse_unit(text, CTX)


QPLANE = single_parameter(CTX, "q", 2)
Q3 = matrix_from_upper(
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
    Q = matrix_of_ones(CTX, 3)
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
        Q = matrix_from_upper(CTX, n, upper)
        a = tuple(rng.randint(-2, 2) for _ in range(n))
        b = tuple(rng.randint(-2, 2) for _ in range(n))
        assert monomial_mul(Q, a, b) == bubble_oracle(Q, a, b)


def test_cocycles_with_rational_coefficients_match_the_oracle():
    # coefficients other than 1 are raised to their powers; -1 and 2/3 also
    # catch a sign or an inverse lost in the integer exponent sums
    rng = random.Random(5)
    pool = ["-1", "2/3", "-2/3*q", "3/2*p^-1*r", "-q^2", "q", "1"]
    for _ in range(150):
        n = rng.randint(1, 4)
        upper = {
            (i, j): U(rng.choice(pool)) for i in range(n) for j in range(i + 1, n)
        }
        Q = matrix_from_upper(CTX, n, upper)
        a = tuple(rng.randint(-3, 3) for _ in range(n))
        b = tuple(rng.randint(-3, 3) for _ in range(n))
        assert monomial_mul(Q, a, b) == bubble_oracle(Q, a, b)
        j = rng.randrange(n)
        ej = tuple(int(i == j) for i in range(n))
        r, _ = bubble_oracle(Q, a, ej)
        s, _ = bubble_oracle(Q, ej, a)
        assert qrs(Q, a, j) == (r * s.inv(), r, s)


def test_cocycle_associativity():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 4)
        upper = {
            (i, j): U(rng.choice(["q", "p", "r", "q^2", "3*p"]))
            for i in range(n)
            for j in range(i + 1, n)
        }
        Q = matrix_from_upper(CTX, n, upper)
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
        Q = single_parameter(CTX, "q", n)
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
        Q = matrix_from_upper(CTX, n, upper)
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
    comm = SelectiveSpace(matrix_of_ones(CTX, 2), frozenset())
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
        Q = matrix_from_upper(CTX, n, upper)
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


_ROW_ENTRIES = [
    "1", "-1", "2/3", "q", "p^2*r^-1", "-3/4*q*p", "5*r^-2", "1/2*q^-1*p", "-2/3*q", "3/2*p^-1*r"
]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_append_row_matches_the_checked_constructor(data):
    # rows[k] holds q_ki for i < k; the full matrix is built independently
    # and checked by __init__, the appended one is not checked again
    entries = st.sampled_from(_ROW_ENTRIES).map(U)
    n = data.draw(st.integers(1, 5))
    rows = [[data.draw(entries) for _ in range(k)] for k in range(n)]
    full = [[ONE] * n for _ in range(n)]
    for k, row in enumerate(rows):
        for i, u in enumerate(row):
            full[k][i], full[i][k] = u, u.inv()
    Q = CommutationMatrix(CTX, [])
    for row in rows:
        Q = Q.append_row(row)
    want = CommutationMatrix(CTX, full)
    assert Q == want and Q.n == n
    # the lower-triangle form grown one row per append is the one built
    # from the full entries
    assert Q.lower == want.lower
    # one row too long or, past n = 1, one too short for the n - 1 matrix
    prev = CommutationMatrix(CTX, [r[:-1] for r in full[:-1]])
    for row in [rows[-1] + [ONE]] + [rows[-1][:-1]] * (n > 1):
        with pytest.raises(InputError, match="wrong length"):
            prev.append_row(row)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_sparse_kernel_matches_the_oracle_on_appended_matrices(data):
    # the lower-triangle form of a matrix grown row by row gives the
    # products and cocycles that reordering the words letter by letter gives:
    # x^d x_j = r x^(d+e_j) and x_j x^d = s x^(d+e_j)
    entries = st.sampled_from(_ROW_ENTRIES).map(U)
    n = data.draw(st.integers(1, 4))
    Q = CommutationMatrix(CTX, [])
    for k in range(n):
        Q = Q.append_row([data.draw(entries) for _ in range(k)])
    vector = st.tuples(*[st.integers(-3, 3)] * n)
    a, b = data.draw(vector), data.draw(vector)
    scalar, exps = monomial_mul(Q, a, b)
    assert (scalar, exps) == bubble_oracle(Q, a, b)
    assert type(scalar.coeff) is Fraction
    for j in range(n):
        ej = tuple(int(i == j) for i in range(n))
        r, _ = bubble_oracle(Q, a, ej)
        s, _ = bubble_oracle(Q, ej, a)
        cocycles = qrs(Q, a, j)
        assert cocycles == (r * s.inv(), r, s)
        assert all(type(u.coeff) is Fraction for u in cocycles)


def test_degenerate_ambients():
    # n = 0: scalars only
    Q0 = CommutationMatrix(CTX, [])
    one = TorusElement.one(CTX, 0)
    assert elem_mul(Q0, one, one) == one
    # n = 1: Laurent polynomials in one variable
    Q1 = matrix_of_ones(CTX, 1)
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
    with pytest.raises(LimitExceeded), max_support_from_environment():
        elem_mul(QPLANE, big, E("1 + x2 + x2^2"))
    # the cap holds only inside the block that parsed it
    assert len(elem_mul(QPLANE, big, E("1 + x2 + x2^2")).terms) == 9
    # a bad value is an input error naming the setting, not a silent default
    for bad in ("abc", "0"):
        monkeypatch.setenv("SKEWTOR_MAX_DEGREE", bad)
        with pytest.raises(InputError, match="SKEWTOR_MAX_DEGREE must be a positive"):
            with max_support_from_environment():
                big + big


# -- powers -------------------------------------------------------------------

_ENTRIES = ["1", "-1", "2", "q", "p^2", "r^-1", "q*p", "1/2*r"]
_POW_COEFFS = ["1", "-3/2", "q*p^-1", "1/(q - p)", "(q + 1)/(q - 1)", "(q - p)*(q + p)/(q*p - r)"]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_single_term_power_matches_repeated_multiplication(data):
    n = data.draw(st.integers(1, 3))
    entries = st.sampled_from(_ENTRIES).map(U)
    upper = {(i, j): data.draw(entries) for i in range(n) for j in range(i + 1, n)}
    Q = matrix_from_upper(CTX, n, upper)
    e = data.draw(st.tuples(*[st.integers(-2, 2)] * n))
    c = parse_scalar(data.draw(st.sampled_from(_POW_COEFFS)), CTX)
    k = data.draw(st.integers(-6, 6))
    u = TorusElement.monomial(CTX, n, e, c)
    got, want = elem_pow(Q, u, k), power_by_multiplication(Q, u, k)
    assert got == want
    names = ("x1", "x2", "x3")[:n]
    assert render_element(got, names) == render_element(want, names)


def test_deep_single_term_power_multiplies_nothing(monkeypatch):
    calls = []
    real = torus.elem_mul
    monkeypatch.setattr(torus, "elem_mul", lambda *args: calls.append(1) or real(*args))
    k = 200_000
    u = E("2*q*x1*x2^-1")
    up, down = elem_pow(QPLANE, u, k), elem_pow(QPLANE, u, -k)
    assert not calls
    # (x1 x2^-1)^2 = q x1^2 x2^-2, so u^k = 2^k q^(k + k(k-1)/2) x1^k x2^-k
    coeff = FieldElement.from_unit(UnitMonomial(CTX, 2**k, (k * (k + 1) // 2, 0, 0)))
    assert up == TorusElement.monomial(CTX, 2, (k, -k), coeff)
    assert real(QPLANE, up, down) == TorusElement.one(CTX, 2)
