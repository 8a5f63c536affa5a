"""Property-based differential tests against brute force and reference scans.

Hypothesis runs derandomized with a bounded number of examples, so the
suite is deterministic and its run time stays fixed.
"""

import re
from fractions import Fraction
from math import comb

from hypothesis import assume, given, settings
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
    poincare_series,
    val_p,
)
from padic_trunk.trunk import STATUS_CYCLE, STATUS_EXPANDED, STATUS_UNDETERMINED

from invariants import check_trunk

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
    assert P == p**t * Q
    assert any(x % p for x in Q.coeffs)


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
    expected = brute_force(P, m)
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


@settings(deterministic, max_examples=120)
@given(case=trunk_inputs(), max_level=st.integers(1, 6))
def test_trunk_answers_match_brute_force(case, max_level):
    P, p = case
    trunk = check_trunk(build_trunk(P, p, max_level))
    e = 1
    while p**e <= MAX_MODULUS:
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


@settings(deterministic, max_examples=100)
@given(case=trunk_inputs(), max_level=st.integers(1, 6))
def test_poincare_coefficients_match_counts(case, max_level):
    P, p = case
    trunk = build_trunk(P, p, max_level)
    series = poincare_series(trunk)
    horizon = (3 * max_level + trunk.t0 if series.certified
               else len(series.truncation) - 1)
    for e, coeff in enumerate(series.expand(horizon)):
        assert coeff * p**e == count_solutions(trunk, e)


def _is_power_of_linear(P):
    """P = c * (X - y)**n for a rational y."""
    n = P.degree
    if n == 0:
        return True
    lead = P.coeffs[n]
    y = Fraction(-P.coeffs[n - 1], n * lead)
    return all(c == lead * comb(n, i) * (-y) ** (n - i) for i, c in enumerate(P.coeffs))


@settings(deterministic, max_examples=200)
@given(case=trunk_inputs(), max_level=st.integers(1, 14))
def test_cycles_only_occur_for_powers_of_a_linear_polynomial(case, max_level):
    # the reason build_trunk may keep every expanded state, not only the path's
    P, p = case
    trunk = build_trunk(P, p, max_level)
    if any(node.status == STATUS_CYCLE for node in trunk.iter_nodes()):
        assert _is_power_of_linear(trunk.P0)


# ----------------------------------------------------------------------
# cycle certificates against a walk from the root
# ----------------------------------------------------------------------

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
def test_cycle_period_is_distance_to_nearest_equal_state(case, max_level):
    P, p = case
    trunk = build_trunk(P, p, max_level)
    for node in trunk.iter_nodes():
        if node.status not in (STATUS_CYCLE, STATUS_EXPANDED, STATUS_UNDETERMINED):
            continue
        equal = [a for a in _ancestors(trunk, node)
                 if (a.t, a.successor) == (node.t, node.successor)]
        if node.status == STATUS_CYCLE:
            match = equal[-1]
            assert node.period == node.k - match.k
            assert node.cycle_digits == tuple(
                (node.r // p**q) % p for q in range(match.k, node.k))
        else:
            assert not equal
