"""Property-based differential tests against brute force and reference scans.

Hypothesis runs derandomized with a bounded number of examples, so the
suite is deterministic and its run time stays fixed.
"""

import contextlib
import io
import json
import random
import re
from fractions import Fraction
from itertools import product
from math import gcd, isqrt, lcm, prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from padic_trunk import (
    InsufficientDepthError,
    Polynomial,
    ball_decomposition,
    brute_force,
    build_trunk,
    count_solutions,
    crt_solve,
    enumerate_solutions,
    is_solution,
    parse,
    poincare_series,
    val_p,
)
from padic_trunk import cli
from padic_trunk.cli import _all_digits, _solve_text, _write
from padic_trunk.polynomial import (
    ROOT_SCAN_LIMIT, SCAN_MEMO_DEGREE, _roots_by_gcd, _scan, poly_to_str, roots_mod_p)
from padic_trunk.primes import is_prime
from padic_trunk.solver import (
    _BLOCK, _ball, _class_blocks, _crt_members, _level_counts, _windows)
from padic_trunk.trunk import (
    CERTIFIED, STATUS_POWER, STATUS_UNDETERMINED, hensel_lift, thickness)

import digest
from invariants import check_trunk, distinct_root_count
from oracle import check_case, random_case

PRIMES = st.sampled_from([2, 3, 5, 7])
#: largest modulus p**e compared against brute force
MAX_MODULUS = 5000

deterministic = settings(derandomize=True, deadline=None, database=None)


# ----------------------------------------------------------------------
# p-content
# ----------------------------------------------------------------------

@settings(deterministic, max_examples=300)
@given(
    coeffs=st.lists(st.one_of(st.just(0), st.integers(-10**6, 10**6)),
                    min_size=1, max_size=8).filter(any),
    p=PRIMES,
    c=st.one_of(st.just(0), st.integers(0, 400)),
)
def test_p_content_splits_off_the_minimum_valuation(coeffs, p, c):
    P = Polynomial(x * p**c for x in coeffs)
    t, Q = P.p_content(p)
    assert t == min(val_p(x, p) for x in P.coeffs if x)
    assert (p**3 * P).p_content(p) == (t + 3, Q) and Q.p_content(p) == (0, Q)
    assert P == p**t * Q
    assert any(x % p for x in Q.coeffs)


# ----------------------------------------------------------------------
# thickness against its definition
# ----------------------------------------------------------------------

@st.composite
def thickness_inputs(draw):
    """(P, r, p): p does not divide P and P(r) = 0 mod p; coefficients up to 3000 bits."""
    p = draw(st.sampled_from([2, 3, 13, 257, 2**61 - 1]))
    n = draw(st.integers(1, 8))
    coefficient = st.one_of(st.just(0), st.integers(-50, 50), st.integers(-2**3000, 2**3000))
    # zero coefficients, and coefficients (the leading one too) divisible by p
    cs = [draw(coefficient) * p ** draw(st.integers(0, 3)) for _ in range(n + 1)]
    r = draw(st.one_of(st.just(0), st.integers(-2 * p, 2 * p), st.integers(-2**200, 2**200)))
    # a unit at some X**j, j >= 1, then the constant term makes r a root
    j = draw(st.integers(1, n))
    if cs[j] % p == 0:
        cs[j] += 1
    cs[0] -= Polynomial(cs).evaluate(r, p)
    return Polynomial(cs), r, p


@st.composite
def shifted_thickness_inputs(draw):
    """(P, r, p) from the coefficients a_j of P(r + X), drawn directly.

    Degree up to 12; some a_j are exactly 0, valuations reach past the
    degree, and j + v_p(a_j) often lands next to a drawn level, so the
    least thickness is often decided by one.
    """
    p = draw(st.sampled_from([2, 3, 13, 2**61 - 1]))
    n = draw(st.integers(1, 12))
    level = draw(st.integers(1, n + 1))
    unit = st.integers(-2**200, 2**200).filter(lambda u: u % p)
    a = [draw(st.one_of(st.just(0), unit)) * p ** max(0, draw(st.one_of(
            st.integers(0, n + 3), st.integers(level - j - 1, level - j + 1))))
         for j in range(n + 1)]
    # a unit at some X**j, j >= 1, and p | a_0, so r is a root and p does not divide P
    a[draw(st.integers(1, n))] = draw(unit)
    a[0] *= p
    r = draw(st.one_of(st.just(0), st.integers(-2 * p, 2 * p), st.integers(-2**100, 2**100)))
    return Polynomial(a).shift_scale(-r, 1), r, p


@settings(deterministic, max_examples=600)
@given(case=st.one_of(thickness_inputs(), shifted_thickness_inputs()))
def test_thickness_is_the_content_of_the_shifted_polynomial(case):
    P, r, p = case
    assert thickness(P, r, p) == P.shift_scale(r, p).p_content(p)
    with pytest.raises(ValueError, match=re.escape("unnormalized input: p divides P")):
        thickness(p * P, r, p)
    with pytest.raises(ValueError, match=re.escape(f"not a root: P({r}) is nonzero modulo {p}")):
        thickness(P + 1, r, p)


@settings(deterministic, max_examples=400)
@given(case=st.one_of(thickness_inputs(), shifted_thickness_inputs()), below=st.integers(1, 14))
def test_a_truncated_thickness_is_exact_up_to_below(case, below):
    P, r, p = case
    t, Q = thickness(P, r, p)
    cut, head = thickness(P, r, p, below)
    assert cut == min(t, below)
    # Q's terms below X**below, with cut for t: p**cut divides P(r + p*X)
    shifted = P.shift_scale(r, p).coeffs
    assert head == Polynomial([c // p**cut for c in shifted[:below]])
    if t < below:
        # the exact successor's terms below X**below, and the dropped terms
        # vanish modulo p**(below - t)
        assert head == Polynomial(Q.coeffs[:below])
        assert all(c % p ** (below - t) == 0 for c in Q.coeffs[below:])
    with pytest.raises(ValueError, match=re.escape(f"not a root: P({r}) is nonzero modulo {p}")):
        thickness(P + 1, r, p, below)
    with pytest.raises(ValueError, match="below must be positive"):
        thickness(P, r, p, 0)


# ----------------------------------------------------------------------
# trunks against brute force
# ----------------------------------------------------------------------

small = st.integers(-12, 12)


@st.composite
def trunk_inputs(draw):
    """(P, p): degree <= 5, optional content, often a repeated factor."""
    p = draw(PRIMES)
    linear = Polynomial([draw(small), draw(st.integers(1, 9))])
    kind = draw(st.sampled_from(["random", "squared", "power", "two powers"]))
    if kind == "random":
        P = Polynomial(draw(st.lists(small, min_size=1, max_size=6)))
    elif kind == "squared":
        P = linear**2 * Polynomial(draw(st.lists(small, min_size=1, max_size=4)))
    elif kind == "power":
        P = linear ** draw(st.integers(2, 5)) * draw(st.sampled_from([1, -1, 2, 3]))
    else:
        # two roots that agree to a few p-adic digits, then separate
        other = Polynomial([linear.coeffs[0] + p ** draw(st.integers(1, 4)), linear.coeffs[1]])
        P = linear ** draw(st.integers(1, 3)) * other ** draw(st.integers(1, 2))
    if P.is_zero:
        P = linear
    return P * p ** draw(st.integers(0, 2)), p


@st.composite
def pure_powers(draw, max_degree=3):
    """(P, p): P = c*S**m with S of degree 1 to max_degree, c often divisible by p.

    A linear S has a and b up to 10**5; a longer one is random or has a
    double root mod p, the product of X - b and X - b - p**j or (X - b)**2 + p*c.
    """
    p = draw(st.sampled_from([2, 3, 5, 7, 13]))
    degree = draw(st.integers(1, max_degree))
    kind = draw(st.sampled_from(["random", "split double root", "double root"]))
    if degree == 1:
        S = Polynomial([-draw(st.integers(-10**5, 10**5)), draw(st.integers(1, 10**5))])
    elif kind == "random":
        S = Polynomial(draw(st.lists(small, min_size=degree, max_size=degree)) + [draw(st.integers(1, 9))])
    else:
        b = draw(small)
        if kind == "split double root":
            S = Polynomial([-b, 1]) * Polynomial([-b - p ** draw(st.integers(1, 3)), 1])
        else:
            S = Polynomial([b * b + p * draw(small), -2 * b, 1])
        if degree == 3:
            S = S * Polynomial([draw(small), draw(st.integers(1, 9))])
    c = draw(st.sampled_from([1, -1, 2, 3, -5])) * p ** draw(st.integers(0, 2))
    return c * S ** draw(st.integers(2, 6 if degree == 1 else 4)), p


#: a polynomial of degree 2 and one of degree 3 without roots mod p
ROOTLESS = {2: ((1, 1, 1), (1, 1, 0, 1)), 3: ((1, 0, 1), (1, 2, 0, 1)),
            5: ((2, 0, 1), (3, 3, 0, 1))}


@st.composite
def high_degree_products(draw):
    """(P, p) as session's high-degree requests: c * (X - r1)**a * (X - r2)**b *
    Q2(X + u)**c2 * Q3(X + v)**c3 of degree up to 300, r1 != r2 mod p, Q2 and Q3
    without roots mod p, and both multiplicities at least 6 >= max_level."""
    p = draw(st.sampled_from([2, 3, 5]))
    r1 = draw(st.integers(-20, 20))
    r2 = r1 + draw(st.integers(1, p - 1)) + p * draw(st.integers(-3, 3))
    a, b = draw(st.integers(6, 90)), draw(st.integers(6, 90))
    c2, c3 = draw(st.integers(0, 30)), draw(st.integers(0, 20))
    Q2, Q3 = (Polynomial(q).shift_scale(draw(st.integers(-20, 20)), 1) for q in ROOTLESS[p])
    c = draw(st.sampled_from([1, -1, 7])) * p ** draw(st.integers(0, 2))
    return c * Polynomial([-r1, 1])**a * Polynomial([-r2, 1])**b * Q2**c2 * Q3**c3, p


def _sufficient_trunk(P, p, trunk, e):
    """The trunk itself, or a rebuild at the max_level the error names."""
    try:
        count_solutions(trunk, e)
        return trunk
    except InsufficientDepthError as exc:
        level = int(re.search(r"max_level >= (\d+)", str(exc)).group(1))
    assert trunk.built_depth < level <= e
    return build_trunk(P, p, level)


def _check_level(P, p, trunk, e):
    """count, balls, membership and enumeration at p**e against brute force."""
    m = p**e
    expected = brute_force(P.reduce_mod(m), m)
    assert count_solutions(trunk, e) == len(expected)
    decomposition = ball_decomposition(trunk, e)
    covered = [x for ball in decomposition.balls
               for x in range(ball.r, m, p**ball.k)]
    assert sorted(covered) == expected
    assert decomposition.count == len(expected)
    assert enumerate_solutions(trunk, e) == expected
    solutions = set(expected)
    for x in range(0, m, max(1, m // 200)):
        assert is_solution(trunk, x, e) == (x in solutions)
    assert all(is_solution(trunk, x, e) for x in expected[:200])


def _check_same_answers(trunk, full, e):
    """count, balls, membership and enumeration at p**e equal those of full."""
    m = trunk.p**e
    assert count_solutions(trunk, e) == count_solutions(full, e)
    assert ball_decomposition(trunk, e) == ball_decomposition(full, e)
    assert enumerate_solutions(trunk, e) == enumerate_solutions(full, e)
    for x in range(0, m, max(1, m // 200)):
        assert is_solution(trunk, x, e) == is_solution(full, x, e)


@settings(deterministic, max_examples=120)
@given(case=trunk_inputs(), max_level=st.integers(1, 6), levels_only=st.booleans())
def test_trunk_answers_match_brute_force(case, max_level, levels_only):
    _check_trunk_answers(*case, max_level, levels_only)


@settings(deterministic, max_examples=16)
@given(case=high_degree_products(), max_level=st.integers(1, 6), levels_only=st.booleans())
def test_trunk_answers_match_brute_force_at_high_degree(case, max_level, levels_only):
    # session's solve requests: every level-1 vertex of a levels_only trunk
    # reaches phi = max_level from the shift's first max_level coefficients
    _check_trunk_answers(*case, max_level, levels_only)


def _check_trunk_answers(P, p, max_level, levels_only):
    """A trunk of P answers as brute force at every level up to MAX_MODULUS,
    rebuilt past its depth; a levels_only trunk also as the full trunk at
    every level it was built for, and it refuses the next."""
    full = trunk = check_trunk(build_trunk(P, p, max_level))
    if levels_only:
        trunk = check_trunk(build_trunk(P, p, max_level, levels_only=True), levels_only=True)
        # a subtrunk of the full trunk that expands no vertex with phi >= max_level
        vertices = {(n.r, n.k) for n in full.iter_nodes()}
        assert all((n.r, n.k) in vertices for n in trunk.iter_nodes())
        assert all(n.phi < max_level for n in [trunk.root, *trunk.iter_nodes()] if n.children)
        if not trunk.fully_resolved:
            with pytest.raises(InsufficientDepthError):
                count_solutions(trunk, max_level + trunk.t0 + 1)
    e = 1
    while e <= max_level + trunk.t0 or p**e <= MAX_MODULUS:
        if e <= max_level + trunk.t0:
            # answered by the trunk as built, no rebuild
            if p**e <= MAX_MODULUS:
                _check_level(P, p, trunk, e)
            if levels_only:
                _check_same_answers(trunk, full, e)
        else:
            _check_level(P, p, _sufficient_trunk(P, p, trunk, e), e)
        e += 1


@settings(deterministic, max_examples=120)
@given(case=trunk_inputs(), max_level=st.integers(1, 4))
def test_certified_tails_match_brute_force_past_the_built_depth(case, max_level):
    P, p = case
    trunk = build_trunk(P, p, max_level)
    assume(trunk.fully_resolved)
    e = 1
    while e <= 3 * max_level + trunk.t0 and p**e <= MAX_MODULUS:
        _check_level(P, p, trunk, e)
        e += 1


@settings(deterministic, max_examples=80)
@given(case=trunk_inputs(), n=st.integers(2, MAX_MODULUS))
def test_crt_solve_matches_brute_force(case, n):
    P, _ = case
    result = crt_solve(P, n)
    expected = brute_force(P, n)
    assert result.solutions == expected
    assert result.count == len(expected)


#: the primes of the moduli that crt_cases draws
CRT_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


@st.composite
def crt_cases(draw):
    """(P, n): n has 1 to 4 prime-power factors p**e, p <= 31, e <= 40; P is a
    product of up to three powers of linear factors, often with roots close at
    n's first prime, or a pure power c * S**m, with coefficients up to 200
    bits and a content at that prime of up to p**3 or past p**e."""
    primes = draw(st.lists(st.sampled_from(CRT_PRIMES), min_size=1, max_size=4, unique=True))
    exps = [draw(st.integers(1, 40)) for _ in primes]
    p, e = primes[0], exps[0]
    coefficient = st.one_of(small, st.integers(-2**200, 2**200))
    b = draw(coefficient)
    if draw(st.booleans()):
        P = Polynomial([1])
        for _ in range(draw(st.integers(1, 3))):
            b = b + p ** draw(st.integers(1, 4)) if draw(st.booleans()) else draw(coefficient)
            P = P * Polynomial([-b, draw(st.integers(1, 9))]) ** draw(st.integers(1, 3))
    else:
        S = Polynomial([-b, draw(st.integers(1, 9))])
        if draw(st.booleans()):
            S = S * Polynomial([draw(coefficient), draw(small), 1])
        P = S ** draw(st.integers(2, 4))
    content = p ** draw(st.sampled_from([0, 1, 2, 3, e, e + 2]))
    return draw(st.sampled_from([1, -1, 2, 3])) * content * P, prod(map(pow, primes, exps))


@settings(deterministic, max_examples=200)
@given(case=crt_cases(), Q=st.lists(st.integers(-2**64, 2**64), max_size=4))
@example(case=(parse("3^50*(X^2-1)"), 2 * 3**40 * 5**3), Q=[1])
@example(case=(parse("(X^2-17)^2*(X-3)"), 13**40 * 31), Q=[])
def test_crt_solve_answers_each_prime_power_from_residues(case, Q):
    # each factor is built to phi >= e from P's residues mod p**e, of absolute
    # value at most p**e / 2, or from the constant p**e where P = 0 mod p**e;
    # its balls are those of the exact P's default trunk at level e
    P, n = case
    built = []

    def spy(R, p, e, **options):
        assert options == {"levels_only": True}
        assert all(2 * abs(c) <= p**e for c in R.coeffs) or R == Polynomial([p**e])
        trunk = build_trunk(R, p, e, **options)
        assert all(node.phi - node.t < e for node in trunk.iter_nodes())
        built.append((p, e))
        return trunk

    result = crt_solve(P, n, count_only=True, trunk_builder=spy)
    assert built == [(pp.p, pp.e) for pp, _ in result.factors]
    for pp, decomposition in result.factors:
        assert decomposition == ball_decomposition(build_trunk(P, pp.p, pp.e), pp.e)
    assert result.count == prod(d.count for _, d in result.factors)
    shifted = P + n * Polynomial(Q)
    assume(not shifted.is_zero)
    assert crt_solve(shifted, n, count_only=True) == result


@settings(deterministic, max_examples=100)
@given(case=trunk_inputs(), max_level=st.integers(1, 6))
def test_poincare_coefficients_match_counts(case, max_level):
    P, p = case
    trunk = build_trunk(P, p, max_level)
    series = poincare_series(trunk)
    horizon = (3 * max_level + trunk.t0 if series.certified
               else len(series.numerator) - 1)
    for e, coeff in enumerate(series.expand(horizon)):
        assert coeff * p**e == count_solutions(trunk, e)


@settings(deterministic, max_examples=100)
@given(case=trunk_inputs(), k=st.integers(1, 8), max_level=st.integers(1, 6))
def test_a_content_p_to_the_k_shifts_the_series_by_k(case, k, max_level):
    P0, p = case
    series0 = poincare_series(build_trunk(P0, p, max_level))
    series = poincare_series(build_trunk(P0 * p**k, p, max_level))
    assert series.certified == series0.certified
    assert series.denominator == series0.denominator
    assert series.denominator_factors == series0.denominator_factors
    # (1 + ... + u**(k-1)) * D + u**k * N0, by schoolbook products
    D, N0 = series0.denominator, series0.numerator
    numerator = [Fraction(0)] * (k + max(len(D), len(N0)))
    for i in range(k):
        for j, c in enumerate(D):
            numerator[i + j] += c
    for j, c in enumerate(N0):
        numerator[k + j] += c
    while not numerator[-1]:
        numerator.pop()
    assert series.numerator == tuple(numerator)
    # an open series is known up to its numerator's last term
    horizon = k + (3 * max_level if series0.certified else len(N0) - 1)
    assert series.expand(horizon) == [1] * k + series0.expand(horizon - k)


@settings(deterministic, max_examples=100)
@given(case=trunk_inputs(), max_level=st.integers(1, 30))
def test_truncated_series_matches_counts_level_by_level(case, max_level):
    P, p = case
    trunk = build_trunk(P, p, max_level)
    assume(not trunk.fully_resolved)
    series = poincare_series(trunk)
    assert not series.certified
    assert series.numerator == tuple(
        Fraction(count_solutions(trunk, e), p**e)
        for e in range(trunk.t0 + max_level + 1))


def _u_series(numerator, denominator, horizon):
    """Coefficients 0..horizon of numerator / denominator by the recurrence
    over Fractions in u that expand() ran before the series moved to integers
    in w = u/p."""
    coeffs = []
    for i in range(horizon + 1):
        acc = numerator[i] if i < len(numerator) else 0
        for j in range(1, min(i, len(denominator) - 1) + 1):
            acc -= denominator[j] * coeffs[i - j]
        coeffs.append(Fraction(acc))
    return coeffs


@settings(deterministic, max_examples=100)
@given(case=trunk_inputs(), k=st.integers(0, 8), max_level=st.integers(1, 6))
def test_poincare_cli_prints_the_counts_and_their_ratios(case, k, max_level):
    P, p = case
    P = P * p**k
    trunk = build_trunk(P, p, max_level)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["poincare", "--poly", poly_to_str(P), "--prime", str(p),
                         "--max-level", str(max_level), "--format", "json"]) == 0
    payload = json.loads(out.getvalue())["payload"]
    horizon = int(payload["horizon"])
    counts = [count_solutions(trunk, e) for e in range(horizon + 1)]
    assert payload["counts"] == [str(n) for n in counts]
    assert payload["coefficients"] == [str(Fraction(n, p**e)) for e, n in enumerate(counts)]
    series = poincare_series(trunk)
    assert series.counts(horizon) == counts
    assert series.expand(horizon) == _u_series(series.numerator, series.denominator, horizon)


@settings(deterministic, max_examples=150)
@given(case=st.one_of(trunk_inputs(), pure_powers()), max_level=st.integers(1, 8),
       extra=st.integers(0, 12))
# certified tails run on to level 70: twelve Hensel tails above the content
# 13^40, two power tails of thickness 2, and Hensel tails below expanded
# vertices of thickness 3 and 2
@example(case=(parse("13^40*" + "*".join(f"(X-{i})" for i in range(1, 13))), 13),
         max_level=2, extra=28)
@example(case=(parse("3^5*(X^2-7)^2"), 3), max_level=2, extra=63)
@example(case=(parse("2^7*(X-1)*(X-3)*(X-5)"), 2), max_level=8, extra=55)
def test_level_counts_are_the_counts_level_by_level(case, max_level, extra):
    P, p = case
    trunk = build_trunk(P, p, max_level)
    # an open trunk is known up to its built depth, a certified one at every level
    last = max_level + (extra if trunk.fully_resolved else -min(extra, max_level))
    # the counts of P0 = P / p**t0: P's from level t0 on are p**t0 times them
    assert [p**trunk.t0 * n for n in _level_counts(trunk, last)] == [
        count_solutions(trunk, e) for e in range(trunk.t0, trunk.t0 + last + 1)]


def _windows_by_full_walk(trunk, e):
    """_windows by the walk over every vertex that it ran before it skipped the
    subtrees below phi >= e - t0: the same windows, in the same order, and the
    same InsufficientDepthError."""
    def preorder(node):
        for child in node.children:
            yield child
            yield from preorder(child)

    e1 = e - trunk.t0
    if e1 <= 0:
        return [(trunk.root, 0)]
    windows, short = [], None
    for node in preorder(trunk.root):
        if node.phi - node.t < e1 and (e1 <= node.phi or node.status in CERTIFIED):
            windows.append((node, node.k - (node.phi - e1) // node.t))
        elif node.phi < e1 and node.status == STATUS_UNDETERMINED and (
                short is None or node.phi < short.phi):
            short = node
    if short is not None:
        raise InsufficientDepthError(
            f"insufficient depth: an undetermined branch at level {short.k}"
            f" only covers levels up to {short.phi + trunk.t0}; rebuild the"
            f" trunk with max_level >= {trunk.built_depth + e1 - short.phi}")
    return windows


@settings(deterministic, max_examples=100)
@given(case=st.one_of(trunk_inputs(), pure_powers()), max_level=st.integers(1, 8),
       levels_only=st.booleans())
def test_windows_skip_no_window_of_the_full_walk(case, max_level, levels_only):
    P, p = case
    trunk = build_trunk(P, p, max_level, levels_only=levels_only)
    for e in range(trunk.t0 + max_level + 4):
        try:
            expected = [(id(node), k) for node, k in _windows_by_full_walk(trunk, e)]
        except InsufficientDepthError as error:
            with pytest.raises(InsufficientDepthError) as raised:
                _windows(trunk, e)
            assert str(raised.value) == str(error)
            continue
        assert [(id(node), k) for node, k in _windows(trunk, e)] == expected


def _roots_of_powers(P):
    """(m, S) for every m >= 2 with P = c * S**m, S primitive with lc(S) > 0.

    The monic rational R with P = lc(P) * R**m is found by matching the
    coefficients of R**m from the top: X**(n-k) gets m * R[d-k] plus terms
    in the coefficients above it.
    """
    n = P.degree
    monic = [Fraction(c, P.coeffs[-1]) for c in P.coeffs]
    found = []
    for m in range(2, n + 1):
        if n % m:
            continue
        d = n // m
        R = [Fraction(0)] * d + [Fraction(1)]
        for k in range(1, d + 1):
            R[d - k] = (monic[n - k] - _power_list(R, m)[n - k]) / m
        if _power_list(R, m) == monic:
            scale = lcm(*(r.denominator for r in R))
            S = [int(r * scale) for r in R]
            found.append((m, Polynomial([c // gcd(*S) for c in S])))
    return found


def _power_list(cs, m):
    out = [Fraction(1)]
    for _ in range(m):
        out = _mul(out, cs)
    return out


@settings(deterministic, max_examples=200)
@given(case=st.one_of(trunk_inputs(), pure_powers()), max_level=st.integers(1, 14))
@example(case=(parse("(X^2-17)^2"), 13), max_level=3)
@example(case=(parse("((X-1)*(X-6)*(X-8))^3"), 5), max_level=3)
@example(case=(parse("(X^2-1)^2"), 2), max_level=3)
def test_power_certified_iff_a_pure_power_at_a_simple_root_of_S(case, max_level):
    # power-certified exactly at the level-1 roots r that are simple for S
    # in P0 = c * S**m, m >= 2; then t = s = m and the tail is S(r + p*X) / p
    P, p = case
    trunk = build_trunk(P, p, max_level)
    powers = _roots_of_powers(trunk.P0) if trunk.P0.degree >= 2 else []
    for node in trunk.iter_nodes():
        simple = [(m, S) for m, S in powers
                  if node.k == 1 and S.evaluate(node.r, p) == 0
                  and S.derivative().evaluate(node.r, p) != 0]
        assert (node.status == STATUS_POWER) == bool(simple), (node.r, node.k)
        if simple:
            [(m, S)] = simple
            assert (node.t, node.s) == (m, m)
            assert all(p * node.tail.evaluate(y) == S.evaluate(node.r + p * y)
                       for y in range(S.degree + 1))


def _ancestors(trunk, node):
    """Non-root vertices above node, root side first, found from the root."""
    path, current = [], trunk.root
    while current is not node:
        current = next(c for c in current.children
                       if node.r % trunk.p**c.k == c.r)
        path.append(current)
    return path[:-1]


@settings(deterministic, max_examples=150)
@given(case=trunk_inputs(), max_level=st.integers(1, 14))
def test_no_vertex_repeats_an_ancestor_state(case, max_level):
    # a state repeats only along P0 = c*(a*X - b)**n, which is certified at
    # level 1: the reason build_trunk keeps no record of expanded states
    P, p = case
    trunk = build_trunk(P, p, max_level)
    for node in trunk.iter_nodes():
        assert not [a for a in _ancestors(trunk, node)
                    if (a.t, a.successor) == (node.t, node.successor)]


@settings(deterministic, max_examples=150)
@given(case=pure_powers(max_degree=1))
@example(case=(Polynomial([-1, 10007]) ** 2, 3))
@example(case=(3 * Polynomial([-3, 6]) ** 3, 3))
def test_linear_powers_resolve_at_level_one(case):
    P, p = case
    trunk = check_trunk(build_trunk(P, p, 1))
    assert trunk.fully_resolved
    e = 1
    while p**e <= MAX_MODULUS:
        _check_level(P, p, trunk, e)
        e += 1
    n, t0 = P.degree, trunk.t0
    has_root = any(trunk.P0.evaluate(x, p) == 0 for x in range(p))
    for e in range(t0 + 1, 401):
        # a root mod p**(e - t0) needs v(a*x - b) >= ceil((e - t0) / n)
        e1 = e - t0
        expected = p**t0 * p**(e1 + e1 // -n) if has_root else 0
        assert count_solutions(trunk, e) == expected, e
    series = poincare_series(trunk)
    assert series.certified
    assert [c * p**e for e, c in enumerate(series.expand(30))] == [
        count_solutions(trunk, e) for e in range(31)]


@settings(deterministic, max_examples=150)
@given(case=pure_powers(), max_level=st.integers(1, 4))
@example(case=(parse("(X^2-17)^2"), 13), max_level=1)
@example(case=(parse("(X^2-2)^3"), 7), max_level=1)
def test_pure_powers_match_brute_force(case, max_level):
    P, p = case
    trunk = check_trunk(build_trunk(P, p, max_level))
    e = 1
    while p**e <= MAX_MODULUS:
        _check_level(P, p, _sufficient_trunk(P, p, trunk, e), e)
        e += 1


@settings(deterministic, max_examples=150)
@given(p=st.sampled_from([3, 5, 7, 13]),
       a=st.integers(-30, 30).filter(lambda a: a < 0 or isqrt(a) ** 2 != a),
       m=st.integers(2, 4), bs=st.sets(small, min_size=1, max_size=4),
       max_level=st.integers(1, 4))
@example(p=13, a=17, m=2, bs={3}, max_level=3)
@example(p=13, a=17, m=2, bs={3, 5}, max_level=3)
def test_a_power_times_simple_factors_is_never_power_certified(p, a, m, bs, max_level):
    # (X^2 - a)**m * prod (X - b) is no pure power, as X - b has multiplicity
    # 1, yet at a simple root of X^2 - a mod p its level-1 vertex has t = s = m
    P = Polynomial([-a, 0, 1]) ** m
    for b in bs:
        P = P * Polynomial([-b, 1])
    trunk = check_trunk(build_trunk(P, p, max_level))
    assume(any(n.t == n.s == m for n in trunk.root.children))
    assert STATUS_POWER not in {n.status for n in trunk.iter_nodes()}


# ----------------------------------------------------------------------
# the Poincaré series comes out in lowest terms
# ----------------------------------------------------------------------

def _mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _div_exact(num, f):
    """num / f for coefficient lists with f[0] == 1 when f divides num, else None."""
    if len(num) < len(f):
        return None
    rest, quotient = list(num), []
    for i in range(len(num) - len(f) + 1):
        quotient.append(rest[i])
        for j, c in enumerate(f):
            rest[i + j] -= quotient[i] * c
    return None if any(rest) else quotient


@settings(deterministic, max_examples=150)
@given(case=st.one_of(trunk_inputs(), pure_powers()), max_level=st.integers(1, 6))
def test_certified_series_is_reduced_with_one_factor_per_tail_thickness(case, max_level):
    P, p = case
    trunk = build_trunk(P, p, max_level)
    assume(trunk.fully_resolved)
    series = poincare_series(trunk)
    thicknesses = sorted({n.t for n in trunk.iter_nodes() if n.tail is not None})
    assert series.denominator_factors == tuple((t, 1) for t in thicknesses)
    factors = [[Fraction(1)] + [Fraction(0)] * (t - 1) + [Fraction(-1, p)] for t in thicknesses]
    denominator = [Fraction(1)]
    for factor in factors:
        denominator = _mul(denominator, factor)
    assert series.denominator == tuple(denominator)
    assert all(_div_exact(series.numerator, factor) is None for factor in factors)


# ----------------------------------------------------------------------
# the trunk against the digit-lifting oracle, past brute force's reach
# ----------------------------------------------------------------------

@settings(deterministic, max_examples=60)
@given(rng=st.randoms(use_true_random=False))
def test_trunk_answers_match_the_lifting_oracle_at_depth(rng):
    P, p, power = random_case(rng)
    check_case(P, p, rng, power)


def test_the_digest_is_seeded_and_hashes_every_count(monkeypatch):
    # tests/golden/digest.json holds a longer run's answer hash, checked in CI
    answers, structure, kinds = digest.digest(4, 6)
    assert digest.digest(4, 6) == (answers, structure, kinds)
    assert digest.digest(5, 6)[:2] != (answers, structure)
    count = digest.count_solutions
    monkeypatch.setattr(digest, "count_solutions",
                        lambda trunk, e: count(trunk, e) + (e == digest.LEVELS))
    changed = digest.digest(4, 6)
    assert changed[0] != answers and changed[1:] == (structure, kinds)


# ----------------------------------------------------------------------
# roots modulo p against the [0, p) scan
# ----------------------------------------------------------------------

#: primes on both sides of ROOT_SCAN_LIMIT, up to about 10**4
ROOT_PRIMES = st.sampled_from([2, 3, 5, 7, 11, 13, 101, 241, 251, 257, 263, 1009, 7919, 10007])
assert 251 < ROOT_SCAN_LIMIT <= 257


def _scan_roots(Q, p):
    red = Q.reduce_mod(p)
    return [x for x in range(p) if red.evaluate(x, p) == 0]


def _rootless_quadratic(p, a):
    """(X + a)**2 - n with n a non-square mod p; (X + a)**2 + (X + a) + 1 when p = 2."""
    if p == 2:
        return Polynomial([a * a + a + 1, 2 * a + 1, 1])
    n = next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)
    return Polynomial([a * a - n, 2 * a, 1])


@st.composite
def mod_p_inputs(draw):
    """(Q, p) with Q mod p of degree >= 1: random, split, repeated, field or rootless."""
    p = draw(ROOT_PRIMES)
    residues = st.integers(0, p - 1)
    kind = draw(st.sampled_from(["random", "split", "repeated", "field", "rootless"]))
    Q = Polynomial([draw(st.integers(1, p - 1))])
    if kind == "random":
        Q = Polynomial(draw(st.lists(st.integers(-10**6, 10**6), min_size=2, max_size=9)))
    elif kind == "split":
        # many distinct linear factors, so that splitting has to recurse
        roots = draw(st.lists(residues, min_size=1, max_size=min(p, 12), unique=True))
        for r in roots:
            Q = Q * Polynomial([-r, 1])
    elif kind == "repeated":
        for r in draw(st.lists(residues, min_size=1, max_size=4)):
            Q = Q * Polynomial([-r, 1]) ** draw(st.integers(1, 3))
    elif kind == "field":
        # divisible by X**p - X, so every residue is a root (p <= deg Q)
        p = draw(st.sampled_from([2, 3, 5, 7]))
        Q = Polynomial([0, -1] + [0] * (p - 2) + [1]) * Polynomial(
            draw(st.lists(st.integers(-9, 9), min_size=1, max_size=3)))
    else:
        for a in draw(st.lists(residues, min_size=1, max_size=3)):
            Q = Q * _rootless_quadratic(p, a)
    # integer lifts of the residues, as successors carry them
    Q = Q + p * Polynomial(draw(st.lists(st.integers(-50, 50), max_size=len(Q.coeffs))))
    red = Q.reduce_mod(p)
    assume(not red.is_zero and red.degree >= 1)
    return Q, p, kind


@settings(deterministic, max_examples=400)
@given(case=mod_p_inputs())
# X**p - X divides these: g has degree p, at p = 2 a quadratic with both roots
@example(case=(Polynomial([0, -1, 0, 1]), 2, "field"))
@example(case=(Polynomial([0, -1, 0, 1]), 3, "field"))
@example(case=(Polynomial([0, 0, -1, 0, 1]), 3, "field"))
def test_roots_mod_p_match_the_scan(case):
    Q, p, kind = case
    expected = _scan_roots(Q, p)
    assert roots_mod_p(Q, p) == expected
    # the gcd path on its own, below the crossover too
    assert _roots_by_gcd(Q.reduce_mod(p), p) == expected
    if kind == "field":
        assert expected == list(range(p))
    if kind == "rootless":
        assert expected == []


#: p = 3 mod 4 (3, 7, 1019, 2^61 - 1), 5 mod 8 (13, 1013), and 1 mod 8 with
#: p - 1 divisible by 2^8, 2^9, 2^16 and 2^32 (257, 7681, 65537,
#: 2^64 - 2^32 + 1): the square roots of both kinds, Tonelli-Shanks at depth
QUADRATIC_PRIMES = [2, 3, 7, 13, 257, 1013, 1019, 7681, 65537,
                    2**61 - 1, 2**64 - 2**32 + 1]


@st.composite
def quadratic_inputs(draw):
    """(Q, p, roots): Q of degree 2 mod p, with its distinct roots mod p when
    they are known by construction (two, double or none), else None."""
    p = draw(st.sampled_from(QUADRATIC_PRIMES))
    kind = draw(st.sampled_from(["split", "double", "rootless", "random"]))
    a, b = draw(st.integers(0, p - 1)), draw(st.integers(0, p - 1))
    roots = None
    if kind == "split":
        Q, roots = Polynomial([-a, 1]) * Polynomial([-b, 1]), sorted({a, b})
    elif kind == "double":
        Q, roots = Polynomial([-a, 1]) ** 2, [a]
    elif kind == "rootless":
        Q, roots = _rootless_quadratic(p, a), []
    else:
        Q = Polynomial([b, a, 1])
    # a unit leading coefficient and integer lifts, as successors carry them
    Q = draw(st.integers(1, p - 1)) * Q + p * Polynomial(
        draw(st.lists(st.integers(-50, 50), max_size=3)))
    return Q, p, roots


@settings(deterministic, max_examples=300)
@given(case=quadratic_inputs())
@example(case=(Polynomial([1, 1, 1]), 2, []))
@example(case=(Polynomial([0, 1, 1]), 2, [0, 1]))
@example(case=(Polynomial([1, 0, 1]), 2, [1]))
@example(case=(Polynomial([1, 0, 1]), 3, []))
@example(case=(Polynomial([1, 1, 1]), 3, [1]))
def test_quadratics_in_closed_form_match_the_scan(case):
    Q, p, roots = case
    red = Q.reduce_mod(p)
    found = _roots_by_gcd(red, p)
    assert roots_mod_p(Q, p) == found
    if p <= 65537:
        assert found == _scan_roots(Q, p)
    assert roots is None or found == roots
    # every root found is one, and they account for both of Q's roots
    assert all(Q.evaluate(x, p) == 0 for x in found)
    lead = Polynomial([red.coeffs[-1]])
    if len(found) == 2:
        assert (lead * Polynomial([-found[0], 1]) * Polynomial([-found[1], 1])).reduce_mod(p) == red
    elif found:
        assert (lead * Polynomial([-found[0], 1]) ** 2).reduce_mod(p) == red


SCAN_PRIMES = [q for q in range(2, ROOT_SCAN_LIMIT) if is_prime(q)]


def test_memoized_roots_match_the_scan_at_every_prime_below_the_limit():
    rng = random.Random(15)
    for p in SCAN_PRIMES:
        for _ in range(6):
            # half of them split into linear factors mod p, so roots are found
            Q = Polynomial([rng.randrange(1, p)])
            for _ in range(rng.randint(1, SCAN_MEMO_DEGREE)):
                Q = Q * Polynomial([rng.randrange(-p * p, p * p), rng.choice([1, 1 + p])])
            if rng.random() < 0.5:
                Q = Q + p * Polynomial([rng.randrange(-p, p) for _ in Q.coeffs])
                Q = Q + Polynomial([rng.randrange(p)])
            if Q.reduce_mod(p).is_zero or Q.reduce_mod(p).degree < 1:
                continue
            expected = [x for x in range(p) if Q.evaluate(x, p) == 0]
            before = _scan.cache_info()
            assert roots_mod_p(Q, p) == expected
            assert roots_mod_p(Q, p) == expected
            after = _scan.cache_info()
            # the second call, at least, is answered from the memo
            assert after.hits >= before.hits + 1
            assert after.hits + after.misses == before.hits + before.misses + 2


@pytest.mark.parametrize("p", [7, 263])
def test_a_returned_root_list_is_the_callers_own(p):
    Q = Polynomial([-1, 0, 1])
    first = roots_mod_p(Q, p)
    assert first == [1, p - 1]
    first[0] = 5
    first.append(6)
    assert roots_mod_p(Q, p) == [1, p - 1]


def test_a_reduction_above_the_memo_degree_is_answered_and_not_stored():
    p = 13
    Q = Polynomial([1])
    for r in range(SCAN_MEMO_DEGREE + 1):
        Q = Q * Polynomial([-r, 1])
    before = _scan.cache_info()
    assert roots_mod_p(Q, p) == list(range(SCAN_MEMO_DEGREE + 1))
    assert roots_mod_p(Q * Polynomial([1, 0, 1]), p) == list(range(SCAN_MEMO_DEGREE + 1))
    after = _scan.cache_info()
    assert (after.hits, after.misses, after.currsize) == (before.hits, before.misses,
                                                         before.currsize)


MERSENNE_61 = 2**61 - 1


@settings(deterministic, max_examples=60)
@given(coeffs=st.lists(st.integers(-10**20, 10**20), min_size=2, max_size=8),
       roots=st.lists(st.integers(0, MERSENNE_61 - 1), max_size=4))
def test_roots_mod_a_61_bit_prime(coeffs, roots):
    q = MERSENNE_61
    Q = Polynomial(coeffs)
    for r in roots:
        Q = Q * Polynomial([-r, 1])
    red = Q.reduce_mod(q)
    assume(not red.is_zero and red.degree >= 1)
    found = roots_mod_p(Q, q)
    assert all(Q.evaluate(x, q) == 0 for x in found)
    assert set(r % q for r in roots) <= set(found)
    assert len(found) == distinct_root_count(list(red.coeffs), q)
    assert found == sorted(set(found))
    assert roots_mod_p(Q, q) == found


# ----------------------------------------------------------------------
# Hensel lifting against the digit-by-digit reference
# ----------------------------------------------------------------------

def digit_by_digit_lift(P, x1, p, e):
    """The unique root modulo p**e above the simple root x1, one base-p digit a step.

    With D the inverse of P'(x1) mod p, level j adds h * p**j for the
    correction h = -(P(x) / p**j) * D mod p.
    """
    d_inv = pow(P.derivative().evaluate(x1, p), -1, p)
    x, pj = x1 % p, p
    for _ in range(e - 1):
        h = -(P.evaluate(x, pj * p) // pj) * d_inv % p
        x += h * pj
        pj *= p
    return x


@st.composite
def simple_roots(draw):
    """(P, x1, p): P(x1) = 0 (mod p) with P'(x1) a unit mod p."""
    p = draw(st.sampled_from([2, 3, 5, 7, 13, 257, 2**61 - 1]))
    x1 = draw(st.integers(0, p - 1))
    coeffs = draw(st.lists(st.integers(-10**6, 10**6), min_size=2, max_size=6))
    P = Polynomial(coeffs)
    # move the constant term so that x1 is a root mod p (but rarely an exact one)
    P = P - P.evaluate(x1, p)
    assume(not P.is_zero and P.derivative().evaluate(x1, p) != 0)
    return P, x1, p


@settings(deterministic, max_examples=300)
@given(case=simple_roots(), e=st.one_of(st.sampled_from([1, 2]), st.integers(1, 300)))
@example(case=(Polynomial([-2, 0, 1]), 3, 7), e=1)
@example(case=(Polynomial([-2, 0, 1]), 3, 7), e=2)
@example(case=(Polynomial([-9 - (2**61 - 1), 0, 1]), 3, 2**61 - 1), e=2)
def test_doubling_lift_equals_the_digit_by_digit_reference(case, e):
    P, x1, p = case
    x = hensel_lift(P, x1, p, e)
    assert x == digit_by_digit_lift(P, x1, p, e)
    assert 0 <= x < p**e and x % p == x1
    assert P.evaluate(x, p**e) == 0


# ----------------------------------------------------------------------
# power tails against the rational root
# ----------------------------------------------------------------------

#: one power-certified vertex each; the p-adic digits of the roots b/a
#: repeat with periods 1, 1, 2, 2, 3, 3, 3 and 4
POWERS = [("(4X-1)^2", 5), ("(2X-1)^2", 3), ("(3X-1)^2", 2), ("(4X-1)^2", 3),
          ("(7X-1)^2", 2), ("(13X-1)^2", 3), ("(7X-3)^3", 2), ("(5X-2)^2", 2)]


@pytest.mark.parametrize("text, p", POWERS)
def test_power_tail_equals_the_rational_root_reference(text, p):
    a, b = map(int, re.fullmatch(r"\((\d+)X-(\d+)\)\^\d", text).groups())
    root = Fraction(b, a)
    [node] = [n for n in build_trunk(parse(text), p, 12).iter_nodes()
              if n.status == STATUS_POWER]
    for k in [*range(node.k, node.k + 40), 997, 1000, 1999, 2000]:
        ball = _ball(p, node, k)
        expected = root.numerator * pow(root.denominator, -1, p**k) % p**k
        assert (ball.r, ball.k) == (expected, k), k


# ----------------------------------------------------------------------
# CRT recombination against the product over residue tuples
# ----------------------------------------------------------------------

def product_crt(P, n):
    """Solutions mod n as one sum over every tuple of per-factor residues."""
    factors = crt_solve(P, n, count_only=True).factors
    basis, per_factor = [], []
    for pp, _ in factors:
        rest = n // pp.modulus
        basis.append(rest * pow(rest, -1, pp.modulus) % n)
        per_factor.append(enumerate_solutions(build_trunk(P, pp.p, pp.e), pp.e))
    return sorted(sum(r * b for r, b in zip(combo, basis)) % n
                  for combo in product(*per_factor))


@settings(deterministic, max_examples=150)
@given(coeffs=st.lists(st.integers(-30, 30), min_size=2, max_size=5).filter(lambda c: c[-1]),
       exps=st.lists(st.integers(0, 4), min_size=5, max_size=5))
@example(coeffs=[1, 0, 1], exps=[0, 1, 1, 0, 0])      # no root mod 3: count 0
@example(coeffs=[-1, 0, 1], exps=[0, 5, 0, 0, 0])     # the single factor 3^5
@example(coeffs=[0, 0, 0, 1], exps=[4, 2, 0, 0, 1])   # X^3: repeated roots everywhere
def test_crt_recombination_equals_the_product_reference(coeffs, exps):
    n = 2**exps[0] * 3**exps[1] * 5**exps[2] * 7**exps[3] * 11**exps[4]
    assume(2 <= n <= 50000)
    P = Polynomial(coeffs)
    result = crt_solve(P, n)
    assert result.solutions == product_crt(P, n)
    assert result.count == len(result.solutions)


#: the first 11 primes, of which n takes 6 to 8
SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


@settings(deterministic, max_examples=60)
@given(lead=st.sampled_from([1, -1, 2, 3]),
       roots=st.lists(st.integers(-30, 30), min_size=2, max_size=4),
       primes=st.lists(st.sampled_from(SMALL_PRIMES), min_size=6, max_size=8, unique=True),
       squared=st.lists(st.booleans(), min_size=8, max_size=8))
@example(lead=1, roots=[1, 2, 3], primes=[5, 7, 11, 13, 17, 19, 23, 29], squared=[False] * 8)
@example(lead=1, roots=[0, 0, 0], primes=[2, 3, 5, 7, 11, 13], squared=[True, True] + [False] * 6)
def test_crt_recombination_over_many_primes_equals_the_product_reference(
        lead, roots, primes, squared):
    # every root solves P mod every n: the listing is never empty
    n = prod(p ** (1 + s) for p, s in zip(primes, squared))
    P = Polynomial([lead])
    for r in roots:
        P = P * Polynomial([-r, 1])
    assume(crt_solve(P, n, count_only=True).count <= 20000)
    result = crt_solve(P, n)
    assert result.solutions == product_crt(P, n)


def coprime_factors(rng, size):
    """Up to size pairwise-coprime moduli from 1 to 2^61 - 1, each with 0 to 5
    distinct residues, and at most 20,000 members in all."""
    powers = [[2, 4, 8, 256], [3, 9, 27], [5, 25], [7, 49], [11], [13], [10007],
              [2**31 - 1], [2**61 - 1]]
    factors, count = [], 1
    for _ in range(size):
        if rng.random() < 0.2 or not powers:
            m = 1
        else:
            m = rng.choice(powers.pop(rng.randrange(len(powers))))
        k = min(m, rng.randint(0, 5) if rng.random() < 0.05 else rng.randint(1, 5),
                20000 // max(count, 1))
        factors.append((m, rng.sample(range(m), k)))
        count *= k
    return factors


@settings(deterministic, max_examples=300)
@given(size=st.integers(0, 9), seed=st.integers(0, 10**6))
def test_crt_members_are_the_sorted_crt_product(size, seed):
    factors = coprime_factors(random.Random(seed), size)
    n = prod(m for m, _ in factors)
    basis = [n // m * pow(n // m, -1, m) % n for m, _ in factors]
    expected = sorted(sum(r * b for r, b in zip(combo, basis)) % n
                      for combo in product(*(S for _, S in factors)))
    assert _crt_members(factors) == expected


# ----------------------------------------------------------------------
# streamed listings of disjoint classes against their ranges
# ----------------------------------------------------------------------

def disjoint_classes(rng, count):
    """Disjoint classes r mod M, M dividing n, with exactly count members in [0, n).

    Random splits of 0 mod 1 by the primes of n give leaves of several
    moduli; some leaves are kept whole, and members of the others are kept
    as classes mod n until the count is reached.
    """
    exps = [rng.randint(0, 9), rng.randint(0, 6), rng.randint(0, 4)]
    if rng.random() < 0.2:
        exps[0] += 60  # moduli far beyond any window
    n = 2**exps[0] * 3**exps[1] * 5**exps[2]
    assume(n >= count)
    leaves = [(0, 1)]
    for _ in range(rng.randint(0, 40)):
        r, M = leaves.pop(rng.randrange(len(leaves)))
        q = rng.choice([q for q in (2, 3, 5) if n % (M * q) == 0] or [1])
        leaves += [(r + i * M, M * q) for i in range(q)] if q > 1 else [(r, M)]
    rng.shuffle(leaves)
    classes, rest, total = [], [], 0
    for r, M in leaves:
        if total + n // M <= count and rng.random() < 0.7:
            classes.append((r, M))
            total += n // M
        else:
            rest.append((r, M))
    for r, M in rest:
        for x in range(r, n, M):
            if total == count:
                return classes, n
            classes.append((x, n))
            total += 1
    return classes, n


@settings(deterministic, max_examples=120)
@given(count=st.sampled_from([0, 1, 4095, 4096, 4097, 8193]), seed=st.integers(0, 10**6))
def test_class_blocks_stream_the_sorted_members(count, seed):
    classes, n = disjoint_classes(random.Random(seed), count)
    groups = {}
    for r, M in classes:
        groups.setdefault(M, []).append(r)
    blocks = list(_class_blocks({M: sorted(rs) for M, rs in groups.items()}, n))
    for block, following in zip(blocks, blocks[1:]):
        assert block[-1] < following[0]
    assert all(block and block == sorted(block) for block in blocks)
    assert all(len(block) <= _BLOCK + len(classes) + 1 for block in blocks)
    listed = [x for block in blocks for x in block]
    assert listed == sorted(x for r, M in classes for x in range(r, n, M))
    assert len(listed) == count


# ----------------------------------------------------------------------
# the CLI's JSON writer against json.dumps
# ----------------------------------------------------------------------

def stringified(value):
    """value with every int, but no bool, replaced by its decimal string."""
    if type(value) is int:
        return str(value)
    if isinstance(value, dict):
        return {key: stringified(item) for key, item in value.items()}
    if isinstance(value, list):
        return [stringified(item) for item in value]
    return value


BIG_INTS = st.builds(lambda digits, sign, low: sign * (10**digits + low),
                     st.integers(4300, 4400), st.sampled_from([1, -1]), st.integers(0, 10**9))
#: int lists around the writer's block of 4096, drawn from a seed to stay fast
INT_LISTS = st.builds(
    lambda size, seed: random.Random(seed).choices(range(-10**12, 10**12), k=size),
    st.sampled_from([1, 4095, 4096, 4097, 8193]), st.integers(0, 1000))
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), BIG_INTS, st.text())
DOCUMENTS = st.recursive(
    SCALARS | INT_LISTS,
    lambda children: st.lists(children, max_size=5) | st.dictionaries(st.text(), children, max_size=5),
    max_leaves=12)


def written(parts):
    """The text `main` prints for parts, without its final newline: bytes
    parts, a listing's formatted blocks, are decoded as they are written."""
    return "".join(part if isinstance(part, str) else part.decode() for part in parts)


def int_blocks(sizes, seed, bound=10**12):
    """Blocks of the given sizes of ints drawn from (-bound, bound)."""
    rng = random.Random(seed)
    return [[rng.randrange(1 - bound, bound) for _ in range(size)] for size in sizes]


def assert_listing_prints(blocks):
    """A stream of blocks prints, in JSON and in text, as its ints would."""
    flat = [x for block in blocks for x in block]
    doc = {"a": [1], "solutions": flat}
    parts = []
    _write({**doc, "solutions": iter(blocks)}, "", parts)
    assert written(parts) == json.dumps(stringified(doc), indent=2, sort_keys=True)
    payload = {"p": 2, "e": 3, "count": len(flat), "solutions": iter(blocks)}
    assert written(_solve_text(payload, False)) == (
        f"modulus: 2^3\ncount: {len(flat)}\nsolutions: " + " ".join(map(str, flat)))


@settings(deterministic, max_examples=200)
@given(doc=DOCUMENTS)
@example(doc={})
@example(doc={"a": [], "b": {}, "c": [True, 1, False, 0, None, -1], "\u2212\x00\ud83d": "\U0001f600"})
@example(doc=[list(range(-4097, 4096)), [10**5000, -(10**4301)]])
def test_writer_equals_json_dumps_of_the_stringified_document(doc):
    parts = []
    with _all_digits():
        _write(doc, "", parts)
        assert written(parts) == json.dumps(stringified(doc), indent=2, sort_keys=True)


# a block that grows past the template formatted so far, and blocks that
# take a short slice of it after it has grown
@pytest.mark.parametrize("sizes", [[], [1], [4096, 1], [3, 4095, 4097], [1, 4096, 9000, 2, 4097]])
def test_writer_prints_a_stream_of_int_blocks_as_its_list(sizes):
    assert_listing_prints(int_blocks(sizes, len(sizes)))


@settings(deterministic, max_examples=40)
@given(sizes=st.lists(st.integers(1, 5000), max_size=6), seed=st.integers(0, 1000),
       bound=st.sampled_from([10, 10**12, 10**40]))
def test_listing_streams_print_for_any_block_sizes(sizes, seed, bound):
    # the solver yields no empty block
    assert_listing_prints(int_blocks(sizes, seed, bound))


def test_listing_ints_past_the_digit_limit_print_whole():
    # bytes %d keeps CPython's int-to-str digit limit, which _all_digits lifts
    with _all_digits():
        assert_listing_prints([[-(10**4301), 7], [10**5000 + 1], [3, 10**4300 - 1]])
