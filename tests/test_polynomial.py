import math
import random
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from padic_trunk import (
    Polynomial, QuadraticClass, X, build_trunk, classify_quadratic, parse, poly_to_str, val_p)
from padic_trunk import polynomial
from padic_trunk.polynomial import _mul_coeffs, _pow_coeffs, _reduce_coeffs, _taylor_shift


EX1 = parse("(X^2+3)*(X^2+3*X+9)")


def test_evaluate_mod():
    assert parse("X^2+11").evaluate(2, 15) == 0
    assert Polynomial().evaluate(7) == 0
    assert EX1.evaluate(3, 81) == 0


def test_evaluate_plain():
    P = 3 * X**3 - 2 * X + 7
    assert P.evaluate(-4) == 3 * (-64) + 8 + 7
    assert P.evaluate(0) == 7


def test_canonical_form():
    assert Polynomial([1, 2, 0, 0]).coeffs == (1, 2)
    assert Polynomial([0, 0, 0]).is_zero
    assert Polynomial() == Polynomial([0])
    assert hash(Polynomial([1, 2])) == hash(Polynomial((1, 2, 0)))


def test_zero_polynomial_has_no_degree_or_content():
    zero = Polynomial()
    with pytest.raises(ValueError, match="no degree"):
        zero.degree
    with pytest.raises(ValueError, match="infinite content"):
        zero.p_content(3)
    with pytest.raises(ValueError):
        zero.shift_scale(0, 3)


def test_powers_of_a_binomial_have_binomial_coefficients():
    # one packed int ** raises X + 2 up to n = 165; past it, slots as wide as the
    # power would waste most of the packed base, and the half power is squared
    for n in [*range(34), 300, 601]:
        assert (X + 2) ** n == Polynomial([math.comb(n, i) * 2 ** (n - i) for i in range(n + 1)])


def test_a_sparse_power_with_a_wide_coefficient_is_squared_term_by_term(monkeypatch):
    # packed, (2^(10^6) + X^5000)^2 would take 10,001 slots of 2 * 10^6 bits, 2.5 GB
    a = Polynomial([2**10**6] + [0] * 4999 + [1])
    square = a * a
    monkeypatch.setattr(polynomial, "_packed", lambda *args: pytest.fail("packed"))
    start = time.perf_counter()
    assert a**2 == square
    assert time.perf_counter() - start < 0.5


def _schoolbook(a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _coefficient_lists(rng, m):
    """Lists without trailing zeros, of every shape the product's paths
    tell apart: dense or sparse, narrow, wide, or a few wide coefficients
    among narrow ones; residues mod m if m."""
    n = rng.choice([1, 2, 5, 30, 120])
    bits = rng.choice([1, 7, 40, 70, 300])
    cs = [rng.randint(-2**bits, 2**bits) if rng.random() < rng.choice([0.1, 1]) else 0
          for _ in range(n)]
    for _ in range(rng.randint(0, 2)):
        cs[rng.randrange(n)] = rng.choice([-1, 1]) * 2 ** rng.randint(100, 1000)
    cs[-1] = cs[-1] or 1
    return _reduce_coeffs(cs, m) if m else cs


@pytest.mark.parametrize("m", [0, 2, 9, 3**8, 2**61, 10**30])
def test_coefficient_products_and_powers_agree_with_schoolbook(m):
    rng = random.Random(m)
    for _ in range(150):
        a, b = _coefficient_lists(rng, m), _coefficient_lists(rng, m)
        if not (a and b):
            continue
        assert _reduce_coeffs(_mul_coeffs(a, b, m), m) == _reduce_coeffs(_schoolbook(a, b), m)
        if not m:
            assert (Polynomial(a) * Polynomial(b)).coeffs == tuple(_reduce_coeffs(_schoolbook(a, b), 0))
        k = rng.randint(0, 4)
        expected = [1]
        for _ in range(k):
            expected = _schoolbook(expected, a)
        assert _reduce_coeffs(_pow_coeffs(a, k, m), m) == _reduce_coeffs(expected, m)


def test_shift_scale_examples():
    # P(3X) picks up the full content 27
    assert EX1.shift_scale(0, 3) == 27 * ((3 * X**2 + 1) * (X**2 + X + 1))
    assert X.shift_scale(0, 5) == 5 * X
    P1 = (3 * X**2 + 1) * (X**2 + X + 1)
    expected = 3 * ((27 * X**2 + 18 * X + 4) * (3 * X**2 + 3 * X + 1))
    assert P1.shift_scale(1, 3) == expected


def test_p_content_examples():
    assert (27 * X**2 + 9).p_content(3) == (2, 3 * X**2 + 1)
    assert (X**2 + 11).p_content(5) == (0, X**2 + 11)
    t, q = EX1.shift_scale(0, 3).p_content(3)
    assert t == 3
    assert q == (3 * X**2 + 1) * (X**2 + X + 1)


def test_reduce_mod_examples():
    assert EX1.reduce_mod(3) == X**4
    for p in (2, 3, 7):
        assert (X**2 + p * X).reduce_mod(p) == X**2
    assert (5 * X**3 + 5 * X**2 + X).reduce_mod(5) == X


def test_val_p():
    assert val_p(27, 3) == 3
    assert val_p(0, 7) == math.inf
    for p in (2, 3, 11):
        for i in range(6):
            assert val_p(p**i, p) == i
    assert val_p(-18, 3) == 2
    with pytest.raises(ValueError):
        val_p(4, 1)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(c=st.integers(-10**30, 10**30), q=st.integers(2, 60), v=st.integers(0, 300))
def test_val_p_against_a_division_loop(c, q, v):
    assume(c % q)
    x, expected = c * q**v, 0
    while x % q == 0:
        x, expected = x // q, expected + 1
    assert val_p(c * q**v, q) == expected == v


@pytest.mark.parametrize("run, expected", [
    (lambda: val_p(3**200000 * 7, 3), 200000),
    (lambda: build_trunk(parse("3^10000^20*X"), 3, 2).t0, 200000),
    (lambda: classify_quadratic(parse("X^2+3^10000^20"), 3), QuadraticClass("K0", 100000)),
], ids=["val_p", "content", "discriminant"])
def test_large_valuations_take_few_divisions(run, expected):
    # the content 3^200000, and a discriminant's valuation 200000: one
    # division per unit of valuation took about 15 s for the build
    start = time.perf_counter()
    assert run() == expected
    assert time.perf_counter() - start < 2


def test_shift_scale_agrees_with_evaluation():
    rng = random.Random(11)
    for _ in range(200):
        P = Polynomial([rng.randint(-30, 30) for _ in range(rng.randint(1, 7))])
        if P.is_zero:
            continue
        r = rng.randint(-10, 10)
        p = rng.choice([2, 3, 5, 7])
        shifted = P.shift_scale(r, p)
        assert shifted.degree == P.degree
        for x in (-3, 0, 1, 9):
            assert shifted.evaluate(x) == P.evaluate(r + p * x)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(cs=st.lists(st.one_of(st.integers(-50, 50), st.integers(-2**300, 2**300)), max_size=14),
       r=st.one_of(st.integers(-5, 5), st.integers(-2**100, 2**100)), n=st.integers(1, 16))
def test_a_truncated_taylor_shift_is_the_start_of_the_full_one(cs, r, n):
    # pass i fixes the coefficient of X**i, so n passes give the first n
    full = _taylor_shift(tuple(cs), r)
    assert _taylor_shift(tuple(cs), r, n) == full[:n]


def test_p_content_composition_identity():
    rng = random.Random(12)
    for _ in range(200):
        p = rng.choice([2, 3, 5])
        P = Polynomial([rng.randint(-50, 50) * p**rng.randint(0, 2)
                        for _ in range(rng.randint(1, 6))])
        if P.is_zero:
            continue
        t, q = P.p_content(p)
        assert p**t * q == P
        assert not q.reduce_mod(p).is_zero
        assert q.reduce_mod(p).degree <= q.degree


def test_reduce_mod_degree_drop_iff_p_divides_leading():
    P = 6 * X**3 + X + 1
    assert P.reduce_mod(3).degree < P.degree
    assert P.reduce_mod(5).degree == P.degree


def test_add():
    P = 3 * X**3 - 2 * X + 7
    zero = Polynomial()
    # a zero operand hands back the other one, immutable either way
    assert P + zero is P and zero + P is P and P + 0 is P and 0 + P is P
    assert P + (X**5 - 7) == X**5 + 3 * X**3 - 2 * X
    assert (X**2 + X) + (1 - X**2) == X + 1
    assert (P + (-P)).is_zero and (P - P).coeffs == ()
    rng = random.Random(5)
    for _ in range(100):
        a = [rng.randint(-9, 9) for _ in range(rng.randint(0, 5))]
        b = [rng.randint(-9, 9) for _ in range(rng.randint(0, 5))]
        n = max(len(a), len(b))
        expected = Polynomial((a + [0] * n)[i] + (b + [0] * n)[i] for i in range(n))
        assert Polynomial(a) + Polynomial(b) == expected


def test_derivative():
    assert (X**3 + 2 * X).derivative() == 3 * X**2 + 2
    assert Polynomial([5]).derivative().is_zero


def test_poly_to_str():
    assert poly_to_str(X) == "X"
    assert poly_to_str(Polynomial()) == "0"
    assert poly_to_str(Polynomial([244, -2, 1])) == "X^2 - 2*X + 244"
    assert poly_to_str(-X**2) == "-X^2"
    assert poly_to_str(Polynomial([-5])) == "-5"
    assert poly_to_str(EX1) == "X^4 + 3*X^3 + 12*X^2 + 9*X + 27"
