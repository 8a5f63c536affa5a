import random
import re
import time

import pytest

from padic_trunk import (
    EnumerationBudgetError,
    InsufficientDepthError,
    Polynomial,
    PrimePower,
    X,
    ball_decomposition,
    brute_force,
    build_trunk,
    count_solutions,
    crt_solve,
    enumerate_solutions,
    is_solution,
    parse,
)

from invariants import check_trunk


# ----------------------------------------------------------------------
# membership
# ----------------------------------------------------------------------

def test_is_solution_table_rows(checked_build):
    trunk = checked_build("(X^2+3)*(X^2+3X+9)", 3, 5)
    assert is_solution(trunk, 21, 4)
    assert not is_solution(trunk, 0, 4)
    assert is_solution(trunk, 0, 3)
    assert is_solution(trunk, 5, 0)  # everything solves mod 1


def test_exact_integer_root_solves_every_level(checked_build):
    trunk = checked_build((X - 3) * (X + 2), 7, 3)
    for e in (1, 2, 5, 12):
        assert is_solution(trunk, 3, e)
        assert is_solution(trunk, -2, e)
    assert not is_solution(trunk, 1, 1)


#: (P, p, e) with Hensel tails (simple roots, some p-adically irrational)
#: and power tails (roots of linear factors, with long p-adic periods),
#: queried far past the built depth
DEEP_MEMBERSHIP = [
    ("(X-5)*(X^2-2)", 7, 1500),
    ("(X+17)*(X^2+X+3)*(X^2+2)", 5, 1100),
    ("X^3-3*X+7", 13, 600),
    ("(X-1)*(X-2)+5", 5, 2),
    ("(4*X-1)^2", 3, 700),
    ("(4*X-1)^2", 5, 901),
    ("X^2", 3, 1000),
    ("(10007*X-1)^2", 3, 1200),
    ("(101*X-7)^2", 2, 999),
]


@pytest.mark.parametrize("text, p, e", DEEP_MEMBERSHIP)
def test_is_solution_matches_evaluation_on_deep_tails(monkeypatch, text, p, e):
    P = parse(text)
    trunk = build_trunk(P, p, 8)
    assert trunk.fully_resolved
    m = p**e
    balls = ball_decomposition(trunk, e).balls
    assert balls
    rng = random.Random(e)
    queries = [rng.randrange(m) for _ in range(5)]
    for ball in balls:
        # exact roots, the same class shifted by p**e, and near-misses that
        # differ only in digit e-1 (or at digit k-1 of a wide ball)
        queries += [ball.r, ball.r - m, ball.r + (ball.r * 7 + 1) % (m // p**ball.k) * p**ball.k]
        queries += [ball.r + c * p**(e - 1) for c in range(1, min(p, 4))]
        queries.append(ball.r + p**(ball.k - 1))
    # membership evaluates the vertex's tail once, with no lift
    monkeypatch.setattr("padic_trunk.solver.hensel_lift", None)
    answers = {x: is_solution(trunk, x, e) for x in queries}
    assert answers == {x: P.evaluate(x, m) == 0 for x in queries}
    assert set(answers.values()) == {True, False}


def test_is_solution_requires_depth(checked_build):
    trunk = checked_build("(X^2-17)^2*(X-3)", 13, 2)
    assert is_solution(trunk, 2, 2)
    assert is_solution(trunk, 132, 4)
    assert not is_solution(trunk, 2, 4)
    with pytest.raises(InsufficientDepthError, match="insufficient depth"):
        is_solution(trunk, 132, 5)
    # a deeper build answers the same query
    deeper = checked_build("(X^2-17)^2*(X-3)", 13, 4)
    assert is_solution(deeper, 132, 5) == (parse("(X^2-17)^2*(X-3)").evaluate(132, 13**5) == 0)


def test_insufficient_depth_names_a_sufficient_max_level():
    P = parse("(X^2-17)^2*(X-3)")
    with pytest.raises(InsufficientDepthError, match="^insufficient depth") as info:
        count_solutions(build_trunk(P, 13, 3), 10)
    level = int(re.search(r"max_level >= (\d+)", str(info.value)).group(1))
    assert 3 < level <= 10
    assert count_solutions(build_trunk(P, 13, level), 10) == count_solutions(
        build_trunk(P, 13, 10), 10)


# ----------------------------------------------------------------------
# counting
# ----------------------------------------------------------------------

def test_count_examples(checked_build):
    trunk = checked_build("(X^2+3)*(X^2+3X+9)", 3, 5)
    assert [count_solutions(trunk, e) for e in range(1, 6)] == [1, 3, 9, 9, 0]
    assert count_solutions(trunk, 9) == 0

    trunk = checked_build("X*(X-1)^2+25", 5, 5)
    assert [count_solutions(trunk, e) for e in range(1, 5)] == [2, 6, 11, 11]
    assert all(count_solutions(trunk, e) == 11 for e in range(5, 11))

    trunk = checked_build("X^2", 3, 6)
    for m in range(1, 7):
        assert count_solutions(trunk, 2 * m) == 3**m
    assert count_solutions(trunk, 0) == 1


# ----------------------------------------------------------------------
# balls
# ----------------------------------------------------------------------

def test_ball_decomposition_examples(checked_build):
    trunk = checked_build("(X^2+3)*(X^2+3X+9)", 3, 5)
    at3 = ball_decomposition(trunk, 3)
    assert [(b.r, b.k) for b in at3.balls] == [(0, 1)]
    assert at3.count == 9
    at4 = ball_decomposition(trunk, 4)
    assert [(b.r, b.k) for b in at4.balls] == [(3, 2)]
    assert at4.count == 9

    rootless = checked_build("X^2+1", 3, 3)
    empty = ball_decomposition(rootless, 1)
    assert empty.balls == [] and empty.count == 0


def test_ball_count_bounded_by_tips(fixture_trunks):
    for _, p, trunk in fixture_trunks:
        horizon = min((n.phi for n in trunk.undetermined_nodes()), default=6)
        for e1 in range(1, horizon + 1):
            decomposition = ball_decomposition(trunk, e1 + trunk.t0)
            assert len(decomposition.balls) <= max(trunk.d_trunk, 1)


#: trunks with t0 = 0 (one with no roots at all) and with t0 = 2 and 1
LEVEL_ZERO_TRUNKS = [("X^2+1", 3), ("(X^2+3)*(X^2+3X+9)", 3), ("9*X^2+9", 3), ("7", 7)]


@pytest.mark.parametrize("text, p", LEVEL_ZERO_TRUNKS)
def test_level_zero_is_the_root_class(checked_build, text, p):
    trunk = checked_build(text, p, 3)
    at0 = ball_decomposition(trunk, 0)
    assert [(b.r, b.k) for b in at0.balls] == [(0, 0)]
    assert at0.count == count_solutions(trunk, 0) == 1
    assert enumerate_solutions(trunk, 0) == [0]
    assert is_solution(trunk, -5, 0)
    # the root's window goes on through every level e <= t0
    for e in range(1, trunk.t0 + 1):
        assert [(b.r, b.k) for b in ball_decomposition(trunk, e).balls] == [(0, 0)]
    queries = [lambda: is_solution(trunk, 0, -1), lambda: count_solutions(trunk, -1),
               lambda: ball_decomposition(trunk, -1), lambda: enumerate_solutions(trunk, -1)]
    for query in queries:
        with pytest.raises(ValueError, match="non-negative"):
            query()


# ----------------------------------------------------------------------
# enumeration
# ----------------------------------------------------------------------

def test_enumeration_table_rows(checked_build):
    trunk = checked_build("(X^2+3)*(X^2+3X+9)", 3, 5)
    assert enumerate_solutions(trunk, 4) == [3, 12, 21, 30, 39, 48, 57, 66, 75]

    trunk = checked_build("(X-1)*(X-2)+5", 5, 4)
    assert enumerate_solutions(trunk, 3) == [31, 97]

    trunk = checked_build("(X-1)^2+3^5", 3, 6)
    assert enumerate_solutions(trunk, 5) == [1, 28, 55, 82, 109, 136, 163, 190, 217]


def test_enumeration_budget(checked_build):
    trunk = checked_build("X^2", 3, 6)
    # N_40 = 3**20 solutions: the count is fine, listing them is not
    assert count_solutions(trunk, 40) == 3**20
    with pytest.raises(EnumerationBudgetError, match="enumeration too large"):
        enumerate_solutions(trunk, 40)
    # a raised budget admits a still-reasonable enumeration
    assert len(enumerate_solutions(trunk, 12, budget=10**7)) == 3**6


def test_monotone_reduction(checked_build):
    rng = random.Random(53)
    for _ in range(25):
        P = Polynomial([rng.randint(-50, 50) for _ in range(rng.randint(1, 6))])
        if P.is_zero:
            continue
        p = rng.choice([2, 3, 5])
        trunk = checked_build(P, p, 5)
        previous = None
        for e in range(1, 6):
            current = set(enumerate_solutions(trunk, e))
            if previous is not None:
                assert {x % p ** (e - 1) for x in current} <= previous
            previous = current


# ----------------------------------------------------------------------
# brute force oracle
# ----------------------------------------------------------------------

def test_brute_force_examples():
    assert brute_force(parse("X^2+11"), 15) == [2, 7, 8, 13]
    assert brute_force(Polynomial([1]), 30) == []
    assert brute_force(parse("(X-1)^2+3^5"), 81) == [1, 10, 19, 28, 37, 46, 55, 64, 73]
    assert brute_force(Polynomial(), 4) == [0, 1, 2, 3]


def test_counts_match_brute_force_on_fixture_trunks(fixture_trunks):
    # every fixture trunk at every level it is built to, up to 10^6 candidates
    for text, p, trunk in fixture_trunks:
        P = parse(text)
        for e in range(trunk.built_depth + 1):
            if p**e <= 10**6:
                assert count_solutions(trunk, e) == len(brute_force(P, p**e, budget=10**6)), \
                    (text, p, e)


def test_brute_force_budget():
    with pytest.raises(EnumerationBudgetError):
        brute_force(X, 10**8)
    assert brute_force(X, 10, budget=10) == [0]


def test_oracle_equivalence_sample():
    rng = random.Random(59)
    cases = 0
    while cases < 60:
        P = Polynomial([rng.randint(-50, 50) for _ in range(rng.randint(1, 6))])
        if P.is_zero:
            continue
        p = rng.choice([2, 3, 5, 7])
        e = rng.randint(1, 6)
        trunk = check_trunk(build_trunk(P, p, e))
        listed = enumerate_solutions(trunk, e)
        assert listed == brute_force(P, p**e)
        assert count_solutions(trunk, e) == len(listed)
        cases += 1


# ----------------------------------------------------------------------
# composite moduli
# ----------------------------------------------------------------------

def test_crt_examples():
    assert crt_solve(parse("X^2+11"), 15).solutions == [2, 7, 8, 13]
    assert crt_solve(X, 77).solutions == [0]
    result = crt_solve(X**2 - 1, 24)
    assert result.solutions == [1, 5, 7, 11, 13, 17, 19, 23]
    assert result.solutions == brute_force(X**2 - 1, 24)
    assert result.count == 8
    assert [(pp.p, pp.e) for pp, _ in result.factors] == [(2, 3), (3, 1)]


def test_crt_against_brute_force_corpus():
    polys = [
        parse("X^2+11"),
        X**2 - 1,
        X**3 + X + 1,
        3 * X + 3,
        6 * X**2 + 5 * X + 1,
        X**2,
        50 * X**2 + 25,
    ]
    moduli = [2, 4, 6, 8, 9, 12, 15, 18, 24, 30, 45, 49, 60, 77, 90, 97,
              100, 128, 210, 243, 360, 1001, 2310, 4096, 9800, 9973]
    for P in polys:
        for n in moduli:
            result = crt_solve(P, n)
            expected = brute_force(P, n)
            assert result.solutions == expected, (str(P), n)
            assert result.count == len(expected)


def test_crt_count_only_and_structure():
    result = crt_solve(X**2 - 1, 360, count_only=True)
    assert result.solutions is None
    assert result.count == len(brute_force(X**2 - 1, 360))
    for pp, decomposition in result.factors:
        assert isinstance(pp, PrimePower)
        assert decomposition.p == pp.p


def test_crt_budget_and_validation():
    with pytest.raises(EnumerationBudgetError):
        crt_solve(X**2 - 1, 24, budget=4)
    with pytest.raises(ValueError, match="at least 2"):
        crt_solve(X, 1)
    # counting ignores the explicit-list budget
    assert crt_solve(X**2 - 1, 24, budget=4, count_only=True).count == 8


def test_crt_solve_builds_each_factor_from_residues_of_a_huge_content():
    # P = 3^(10^6) * (X^2 - 1) is 0 mod 3^2 and stands there as the constant
    # 3^2; an exact trunk at 3^2 strips the valuation 10^6, about 2 s
    P = parse("3^10000^10^10*(X^2-1)")
    start = time.perf_counter()
    result = crt_solve(P, 2250)
    assert time.perf_counter() - start < 0.5
    assert result.count == 18
    assert [(pp.p, pp.e, d.count) for pp, d in result.factors] == [(2, 1, 1), (3, 2, 9), (5, 3, 2)]
    assert result.solutions == brute_force(P.reduce_mod(2250), 2250)


def test_prime_power_validation():
    assert PrimePower(3, 4).modulus == 81
    with pytest.raises(ValueError, match="not prime"):
        PrimePower(6, 2)
    with pytest.raises(ValueError, match="non-negative"):
        PrimePower(3, -1)

