"""A deep oracle for the trunk's answers, independent of the trunk.

It lifts the solution set of P(x) = 0 (mod p**e) one base-p digit per
level: the solutions modulo p**(j+1) are the x + d*p**j with x a solution
modulo p**j, d in [0, p) and P(x + d*p**j) = 0 modulo p**(j+1).  It calls
only Polynomial.evaluate and knows nothing of thickness, windows,
certificates or roots mod p.  A level costs p * N_j evaluations, so the
oracle goes deep wherever the solution set stays small, far past the
p**e <= 5000 that brute force over [0, p**e) reaches.

A pure power P = p**t0 * u * S**m, u a p-adic unit, has too many
solutions to list past a few levels, but P(x) = 0 (mod p**e) exactly when
S(x) = 0 (mod p**f), f = ceil((e - t0) / m), so N_e = p**(e - f) * N_f(S)
(p**e for e <= t0).  Past the listing budget the oracle compares the
trunk's counts with that, taking N_f(S) from its lifting of S, whose
levels stay small.

The property test in test_properties.py runs check_case on a few dozen
inputs.  A larger seeded run is a script:

    PYTHONPATH=src python tests/oracle.py --seed 20261018 --cases 400
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import time

from padic_trunk import (
    InsufficientDepthError,
    Polynomial,
    ball_decomposition,
    build_trunk,
    count_solutions,
    enumerate_solutions,
    is_solution,
)
from padic_trunk import cli

PRIMES = (2, 3, 5, 7, 13, 101, 1009)
#: the level every checked trunk is built to
BUILT_DEPTH = 40
#: the deepest level compared
MAX_E = 200
#: a case stops once a level has more solutions than this ...
MAX_SOLUTIONS = 2000
#: ... or once lifting the next level would pass this many evaluations in all;
#: at p = 1009 a level of 2000 solutions alone takes 2 million
MAX_EVALUATIONS = 1_000_000
#: brute force over [0, p**e) reaches this modulus in the other property tests
BRUTE_FORCE_MODULUS = 5000


def lifted_levels(P: Polynomial, p: int, max_e: int):
    """(e, sorted solutions modulo p**e) for e = 0, 1, ..., until a budget runs out."""
    level, pj, evaluations = [0], 1, 0
    for e in range(max_e + 1):
        yield e, level
        evaluations += p * len(level)
        if len(level) > MAX_SOLUTIONS or evaluations > MAX_EVALUATIONS:
            return
        m = pj * p
        level = sorted(x + d * pj for x in level for d in range(p)
                       if P.evaluate(x + d * pj, m) == 0)
        pj = m


def random_case(rng: random.Random) -> tuple[Polynomial, int, tuple | None]:
    """(P, p, power): content 1, p or p**2 times up to three powers of linear
    factors, or, one time in three, times c*S**m for m in {2, 3} and S a
    product of one or two monic quadratics or cubics irreducible over Q.
    power is (c, S, m) with P = c * S**m for the latter, None otherwise.

    Leading coefficients run up to p, so some factors have no root mod p,
    and a factor's root often agrees with the previous one to a few digits.
    The roots of S mod p may be simple, double or absent.
    """
    p = rng.choice(PRIMES)
    P = Polynomial([rng.choice([1, p, p * p])])
    if rng.random() < 1 / 3:
        S = Polynomial([1])
        for _ in range(rng.randint(1, 2)):
            S = S * irreducible_factor(rng, p, rng.randint(2, 3))
        c, m = P.coefficient(0) * rng.choice([1, -1, 2, 3]), rng.randint(2, 3)
        return c * S**m, p, (c, S, m)
    b = rng.randint(-p * p, p * p)
    for _ in range(rng.randint(1, 3)):
        a = rng.randint(1, p)
        b = b + p ** rng.randint(1, 4) if rng.random() < 0.5 else rng.randint(-p * p, p * p)
        P = P * Polynomial([-b, a]) ** rng.randint(1, 3)
    return P, p, None


def irreducible_factor(rng: random.Random, p: int, degree: int) -> Polynomial:
    """A monic quadratic or cubic over Z with no rational root, so irreducible.

    Its constant term is often a multiple of p and its X term a small
    multiple of p, so mod p it often has a double root at 0.
    """
    while True:
        cs = [rng.randint(-p * p, p * p) for _ in range(degree)] + [1]
        if rng.random() < 0.3:
            cs[0], cs[1] = p * rng.randint(1, p), p * rng.randint(-2, 2)
        # a rational root of a monic integer polynomial is an integer dividing cs[0]
        if cs[0] and not any(Polynomial(cs).evaluate(x) == 0
                             for d in range(1, abs(cs[0]) + 1) if cs[0] % d == 0
                             for x in (d, -d)):
            return Polynomial(cs)


def check_case(P: Polynomial, p: int, rng: random.Random,
               power: tuple | None = None) -> tuple[int, int, int, int]:
    """Compare a trunk of P built to BUILT_DEPTH with the oracle, level by level.

    At each level: the count, the sorted listing, and for each ball its r,
    a random member and the neighbour r + p**(k-1) outside it, each both in
    the oracle's set as expected and by is_solution.  For P = c * S**m, given
    as power = (c, S, m), the levels past the listing budget go on through
    check_power_levels.  Three of the levels compared, the first e >= 1, the
    first past brute force's reach and the deepest, are also answered by
    `solve` through check_solve.  Returns the number of levels compared, how
    many of them are past brute force's reach, how many went through S, and
    how many `solve` answered.
    """
    trunk = build_trunk(P, p, BUILT_DEPTH)
    levels = deep = 0
    opened = False
    solved: dict[int, list[int]] = {}
    for e, expected in lifted_levels(P, p, MAX_E):
        m = p**e
        try:
            count = count_solutions(trunk, e)
        except InsufficientDepthError:
            # only a branch left open at the built depth may stop the trunk
            assert e > BUILT_DEPTH + trunk.t0, (P, p, e)
            opened = True
            break
        assert count == len(expected), (P, p, e)
        assert enumerate_solutions(trunk, e) == expected, (P, p, e)
        solutions = set(expected)
        for ball in ball_decomposition(trunk, e).balls:
            pk = p**ball.k
            member = ball.r + rng.randrange(m // pk) * pk
            assert ball.r in solutions and member in solutions, (P, p, e, ball)
            xs = [ball.r, member] + ([(ball.r + pk // p) % m] if ball.k else [])
            for x in xs:
                assert is_solution(trunk, x, e) == (x in solutions), (P, p, e, x)
        levels += 1
        deep += m > BRUTE_FORCE_MODULUS
        if e == 1 or m > BRUTE_FORCE_MODULUS >= m // p:
            solved[e] = expected
        deepest = e, expected
    if levels:
        solved.setdefault(*deepest)
    for e, expected in solved.items():
        check_solve(P, p, e, expected)
    through_S = 0 if opened or power is None or e == MAX_E else \
        check_power_levels(trunk, *power, e + 1)
    return levels, deep, through_S, len(solved)


def check_solve(P: Polynomial, p: int, e: int, expected: list[int]) -> None:
    """`solve --balls --format json` on P's text at p**e, which parses P modulo
    p**e and builds only the levels e reads, against the oracle's level e:
    the count, and balls that lie in the solution set and cover it."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["solve", "--poly", str(P), "--prime", str(p), "--exp", str(e),
                         "--balls", "--format", "json"])
    assert code == 0, (P, p, e)
    payload = json.loads(out.getvalue())["payload"]
    assert int(payload["count"]) == len(expected), (P, p, e)
    balls = [(int(ball["r"]), p ** int(ball["k"])) for ball in payload["balls"]]
    # balls that cover the level and whose sizes sum to its count are disjoint and inside it
    assert sum(p**e // pk for _, pk in balls) == len(expected), (P, p, e)
    assert all(any(x % pk == r for r, pk in balls) for x in expected), (P, p, e)


def check_power_levels(trunk, c: int, S: Polynomial, m: int, start: int) -> int:
    """Compare the trunk of P = c * S**m, S monic, with S's lifted levels at
    e = start .. MAX_E: the count p**(e - f) * N_f(S), and is_solution on one
    lifted root x of S mod p**f and on its neighbour x + p**(f-1).  Returns
    the number of levels compared; stops where the trunk or S's lifting does.
    """
    p, t0 = trunk.p, 0
    while c % p**(t0 + 1) == 0:
        t0 += 1
    f_last = max(0, -(-(MAX_E - t0) // m))
    roots_of_S = [level for _, level in lifted_levels(S, p, f_last)]
    levels = 0
    for e in range(start, MAX_E + 1):
        f = max(0, -(-(e - t0) // m))
        if f >= len(roots_of_S):
            break
        try:
            count = count_solutions(trunk, e)
        except InsufficientDepthError:
            assert e > BUILT_DEPTH + t0, (c, S, m, p, e)
            break
        roots = roots_of_S[f]
        assert count == p**(e - f) * len(roots), (c, S, m, p, e)
        if roots:
            x = roots[e % len(roots)]
            assert is_solution(trunk, x, e), (c, S, m, p, e, x)
            if f:
                y = x + p**(f - 1)
                assert is_solution(trunk, y, e) == (y % p**f in set(roots)), (c, S, m, p, e, y)
        levels += 1
    return levels


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(
        description="Check random trunks against the digit-lifting oracle.")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cases", type=int, default=100)
    args = parser.parse_args(argv)
    rng = random.Random(args.seed)
    start = time.perf_counter()
    levels = deep = powers = solved = 0
    for _ in range(args.cases):
        P, p, power = random_case(rng)
        checked, past, through_S, by_solve = check_case(P, p, rng, power)
        levels += checked + through_S
        deep += past
        powers += through_S
        solved += by_solve
    print(f"{args.cases} cases: {levels} levels agree, {deep} of them past"
          f" p**e = {BRUTE_FORCE_MODULUS} and {powers} pure-power levels past the"
          f" listing budget, and `solve` agrees on {solved} of them,"
          f" in {time.perf_counter() - start:.1f} s")
    if args.cases >= 100 and not powers:
        # a run this size always draws pure powers too large to list
        raise SystemExit("no pure-power level was checked past the listing budget")


if __name__ == "__main__":
    main()
