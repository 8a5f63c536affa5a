"""Property-based differential tests against brute force and reference scans.

Hypothesis runs derandomized with a bounded number of examples, so the
suite is deterministic and its run time stays fixed.
"""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from padic_trunk import (
    InsufficientDepthError,
    Polynomial,
    ball_decomposition,
    brute_force,
    build_trunk,
    count_solutions,
    is_solution,
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
    kind = draw(st.sampled_from(["random", "squared", "power"]))
    if kind == "random":
        P = Polynomial(draw(st.lists(small, min_size=1, max_size=6)))
    elif kind == "squared":
        P = linear**2 * Polynomial(draw(st.lists(small, min_size=1, max_size=4)))
    else:
        P = linear ** draw(st.integers(2, 5)) * draw(st.sampled_from([1, -1, 2, 3]))
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


@settings(deterministic, max_examples=120)
@given(case=trunk_inputs(), max_level=st.integers(1, 6))
def test_trunk_answers_match_brute_force(case, max_level):
    P, p = case
    trunk = check_trunk(build_trunk(P, p, max_level))
    e = 1
    while p**e <= MAX_MODULUS:
        m = p**e
        expected = brute_force(P, m)
        built = _sufficient_trunk(P, p, trunk, e)
        assert count_solutions(built, e) == len(expected)
        decomposition = ball_decomposition(built, e)
        covered = [x for ball in decomposition.balls
                   for x in range(ball.r, m, p**ball.k)]
        assert sorted(covered) == expected
        assert decomposition.count == len(expected)
        solutions = set(expected)
        for x in range(0, m, max(1, m // 200)):
            assert is_solution(built, x, e) == (x in solutions)
        assert all(is_solution(built, x, e) for x in expected[:200])
        e += 1


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
