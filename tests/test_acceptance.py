"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from padic_trunk import (
    Polynomial,
    X,
    brute_force,
    build_trunk,
    classify_quadratic,
    count_solutions,
    crt_solve,
    enumerate_solutions,
    hensel_lift,
    parse,
    poincare_series,
    thickness,
)
from invariants import check_trunk, quadratic_class_from_trunk
from test_analysis import _random_quadratics
from test_trunk import taylor_thickness


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"\n[criterion {number:2d}] FAIL  {description}")
        raise
    print(f"\n[criterion {number:2d}] PASS  {description}")


def test_criterion_01_worked_example_one():
    with criterion(1, "finite-trunk reproduction: vertices, counts, enumeration"):
        start = time.perf_counter()
        trunk = check_trunk(build_trunk(parse("(X^2+3)*(X^2+3X+9)"), 3, 5))
        nodes = [(n.r, n.k, n.t) for n in trunk.iter_nodes()]
        assert nodes == [(0, 1, 3), (3, 2, 1)]
        assert [count_solutions(trunk, e) for e in range(1, 6)] == [1, 3, 9, 9, 0]
        assert enumerate_solutions(trunk, 4) == \
            [3, 12, 21, 30, 39, 48, 57, 66, 75]
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_02_worked_example_with_lifted_branches():
    with criterion(2, "split-trunk reproduction: counts, lifts, enumeration"):
        P = parse("X*(X-1)^2+25")
        trunk = check_trunk(build_trunk(P, 5, 10))
        assert [count_solutions(trunk, e) for e in range(1, 5)] == [2, 6, 11, 11]
        assert all(count_solutions(trunk, e) == 11 for e in range(5, 11))
        assert hensel_lift(P, 0, 5, 3) == 100
        assert hensel_lift(P, 0, 5, 4) == 600
        above_one = [x for x in enumerate_solutions(trunk, 3) if x % 5 == 1]
        assert above_one == [11, 16, 36, 41, 61, 66, 86, 91, 111, 116]


def test_criterion_03_degree_two_tables():
    with criterion(3, "degree-two tables: dead-end stem and two lifted roots"):
        trunk = check_trunk(build_trunk(parse("(X-1)^2+3^5"), 3, 9))
        expected = [
            [1],
            [1, 4, 7],
            [1, 10, 19],
            [1, 10, 19, 28, 37, 46, 55, 64, 73],
            [1, 28, 55, 82, 109, 136, 163, 190, 217],
        ]
        for e, row in enumerate(expected, start=1):
            assert enumerate_solutions(trunk, e) == row
        for e in range(6, 10):
            assert count_solutions(trunk, e) == 0

        trunk = check_trunk(build_trunk(parse("(X-1)*(X-2)+5"), 5, 4))
        assert enumerate_solutions(trunk, 1) == [1, 2]
        assert enumerate_solutions(trunk, 2) == [6, 22]
        assert enumerate_solutions(trunk, 3) == [31, 97]


def test_criterion_04_composite_modulus():
    with criterion(4, "composite modulus via factorization and recombination"):
        assert crt_solve(parse("X^2+11"), 15).solutions == [2, 7, 8, 13]


def test_criterion_05_oracle_equivalence():
    with criterion(5, "500-case enumeration vs brute force, zero tolerance"):
        start = time.perf_counter()
        rng = random.Random(2024)
        cases = 0
        while cases < 500:
            P = Polynomial([rng.randint(-50, 50) for _ in range(rng.randint(1, 6))])
            if P.is_zero:
                continue
            p = rng.choice([2, 3, 5, 7])
            e = rng.randint(1, 6)
            trunk = check_trunk(build_trunk(P, p, e))
            assert enumerate_solutions(trunk, e) == brute_force(P, p**e), \
                (list(P.coeffs), p, e)
            cases += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"suite took {elapsed:.1f}s"


def test_criterion_06_invariant_suite(fixture_trunks):
    with criterion(6, "structural invariants on the full fixture family"):
        # fixture_trunks routes every build through check_trunk: node rule,
        # thickness bounds, cumulative-thickness additivity, level widths,
        # the exact identity P0(r + p^k X) = p^phi * successor, and the
        # disjoint-ball accounting all hold on every fixture trunk.
        assert len(fixture_trunks) == 13
        for _, _, trunk in fixture_trunks:
            for node in trunk.iter_nodes():
                assert 1 <= node.t <= trunk.P0.degree


def test_criterion_07_thickness_dual_computation():
    with criterion(7, "content-based thickness equals the valuation formula"):
        rng = random.Random(4049)
        found = 0
        while found < 200:
            P = Polynomial([rng.randint(-60, 60) for _ in range(rng.randint(2, 7))])
            if P.is_zero:
                continue
            p = rng.choice([2, 3, 5, 7, 11])
            if not any(c % p for c in P.coeffs):
                continue
            for r in range(p):
                if P.evaluate(r, p) != 0:
                    continue
                t, _ = thickness(P, r, p)
                assert t == taylor_thickness(P, r, p), (list(P.coeffs), r, p)
                found += 1
                if found >= 200:
                    break
        assert found >= 200


def test_criterion_08_quadratic_classification():
    with criterion(8, "discriminant classifier agrees with trunk inspection"):
        rng = random.Random(8081)
        quadratics = _random_quadratics(rng, 200)
        assert sum(1 for P, p in quadratics
                   if classify_quadratic(P, p).base_length is None) >= 20
        for P, p in quadratics:
            expected = classify_quadratic(P, p)
            stem = 6 if expected.base_length is None else expected.base_length
            trunk = build_trunk(P, p, 2 * stem + 4)
            assert quadratic_class_from_trunk(trunk) == expected, (str(P), p)


def test_criterion_09_series_verification():
    with criterion(9, "certified series match the counts, three closed forms"):
        # finite trunk: the series is the polynomial with coefficients
        # 1, 1/3, 1/3, 1/3, 1/9
        series = poincare_series(build_trunk(parse("(X^2+3)*(X^2+3X+9)"), 3, 5))
        assert series.certified
        assert series.numerator == (Fraction(1), Fraction(1, 3), Fraction(1, 3),
                                    Fraction(1, 3), Fraction(1, 9))
        assert series.denominator == (Fraction(1),)

        # single lifted branch: 1 / (1 - u/5)
        series = poincare_series(build_trunk(X, 5, 3))
        assert series.certified
        assert series.numerator == (Fraction(1),)
        assert series.denominator == (Fraction(1), Fraction(-1, 5))

        # cycling square: counts follow 3^(e//2), verified by brute force
        trunk = build_trunk(X**2, 3, 6)
        series = poincare_series(trunk)
        assert series.certified
        coeffs = series.expand(12)
        for e in range(1, 7):
            assert coeffs[e] * 3**e == len(brute_force(X**2, 3**e))
        for e, c in enumerate(coeffs):
            assert c * 3**e == 3 ** (e // 2)

        # every certified fixture series reproduces count_solutions to order 10
        corpus = ["(X^2+3)*(X^2+3X+9)", "X*(X-1)^2+25", "X", "X^2",
                  "(4*X-1)^2", "(X-1)^2+3^5", "(X-1)^2+3^4", "(X-1)*(X-2)+5",
                  "9*X^2+9", "X^2+1"]
        primes = [3, 5, 5, 3, 3, 3, 3, 5, 3, 3]
        for text, p in zip(corpus, primes):
            trunk = build_trunk(parse(text), p, 8)
            series = poincare_series(trunk)
            assert series.certified, text
            for e, c in enumerate(series.expand(10)):
                assert c == Fraction(count_solutions(trunk, e), p**e), (text, e)


def test_criterion_10_compact_counting_outpaces_scanning():
    with criterion(10, "trunk counting at level 20 vs a timed brute-force scan"):
        P = X**2
        start = time.perf_counter()
        trunk = build_trunk(P, 3, 20)
        n20 = count_solutions(trunk, 20)
        trunk_time = time.perf_counter() - start
        assert n20 == 3**10
        assert trunk_time < 0.010, f"trunk counting took {trunk_time*1000:.2f}ms"

        # Genuine lower bound on the full m = 3**20 scan: evaluate the same
        # congruence on the first 3**12 candidates with the full modulus.
        m_full = 3**20
        sample = 3**12
        start = time.perf_counter()
        hits = sum(1 for x in range(sample) if P.evaluate(x, m_full) == 0)
        sample_time = time.perf_counter() - start
        assert hits == len([x for x in range(sample) if x % 3**10 == 0])
        estimated_full = sample_time * (m_full / sample)
        print(f"\n  trunk: {trunk_time*1000:.3f}ms for N_20; brute-force scan of"
              f" {sample} of {m_full} candidates: {sample_time*1000:.1f}ms"
              f" (full run estimated {estimated_full:.0f}s)")
        assert sample_time >= 100 * trunk_time, \
            f"sample scan {sample_time:.4f}s vs trunk {trunk_time:.6f}s"
