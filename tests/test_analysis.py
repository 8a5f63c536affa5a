import random
from fractions import Fraction

import pytest

from padic_trunk import (
    InsufficientDepthError,
    Polynomial,
    QuadraticClass,
    X,
    brute_force,
    build_trunk,
    classify_quadratic,
    count_solutions,
    parse,
    poincare_series,
)
from padic_trunk.trunk import STATUS_LEAF

from invariants import check_trunk, quadratic_class_from_trunk


# ----------------------------------------------------------------------
# generating function
# ----------------------------------------------------------------------

def test_series_finite_trunk_is_a_polynomial(checked_build):
    series = poincare_series(checked_build("(X^2+3)*(X^2+3X+9)", 3, 5))
    assert series.certified
    assert series.denominator == (Fraction(1),)
    assert series.numerator == (
        Fraction(1), Fraction(1, 3), Fraction(1, 3), Fraction(1, 3), Fraction(1, 9))
    assert series.denominator_factors == ()


def test_series_single_lifted_branch_is_geometric(checked_build):
    series = poincare_series(checked_build("X", 5, 3))
    assert series.certified
    assert series.numerator == (Fraction(1),)
    assert series.denominator == (Fraction(1), Fraction(-1, 5))
    assert series.expand(6) == [Fraction(1, 5**e) for e in range(7)]


def test_series_cycle_closed_form(checked_build):
    trunk = checked_build("X^2", 3, 6)
    series = poincare_series(trunk)
    assert series.certified
    assert series.numerator == (Fraction(1), Fraction(1, 3))
    assert series.denominator == (Fraction(1), Fraction(0), Fraction(-1, 3))
    assert series.denominator_factors == ((2, 1),)
    coeffs = series.expand(12)
    for e, c in enumerate(coeffs):
        assert c * 3**e == 3 ** (e // 2)
    # cross-check the small coefficients against the direct scan
    for e in range(1, 7):
        assert coeffs[e] == Fraction(len(brute_force(X**2, 3**e)), 3**e)


def test_series_matches_counts_on_fixture_trunks(fixture_trunks):
    for text, p, trunk in fixture_trunks:
        series = poincare_series(trunk)
        if not series.certified:
            continue
        horizon = max(10, trunk.built_depth)
        for e, c in enumerate(series.expand(horizon)):
            assert c == Fraction(count_solutions(trunk, e), p**e), (text, e)


def test_series_denominators_are_products_of_certified_factors(fixture_trunks):
    one = [Fraction(1)]
    for _, p, trunk in fixture_trunks:
        series = poincare_series(trunk)
        if not series.certified:
            continue
        product = one
        for a, b in series.denominator_factors:
            assert a >= 1 and b >= 0
            factor = [Fraction(1)] + [Fraction(0)] * (a - 1) + [Fraction(-1, p**b)]
            out = [Fraction(0)] * (len(product) + len(factor) - 1)
            for i, ci in enumerate(product):
                for j, cj in enumerate(factor):
                    out[i + j] += ci * cj
            product = out
        assert tuple(product) == series.denominator
        assert series.denominator[0] == 1


def test_series_truncated_when_branches_stay_open(checked_build):
    trunk = checked_build("(X^2-17)^2*(X-3)", 13, 2)
    series = poincare_series(trunk)
    assert not series.certified
    assert series.denominator == (1,)
    for e, c in enumerate(series.numerator):
        assert c == Fraction(count_solutions(trunk, e), 13**e)
    assert series.expand(2) == list(series.numerator[:3])
    with pytest.raises(ValueError, match="truncat"):
        series.expand(len(series.numerator))
    with pytest.raises(ValueError, match="non-negative"):
        series.expand(-1)
    with pytest.raises(ValueError, match="non-negative"):
        poincare_series(checked_build("X^2", 3, 2)).expand(-1)


def test_series_with_content_shift(checked_build):
    trunk = checked_build("9*X^2+9", 3, 3)
    series = poincare_series(trunk)
    assert series.certified
    # levels 1 and 2 are solved by the content alone, nothing beyond
    assert series.numerator == (Fraction(1), Fraction(1), Fraction(1))
    assert series.denominator == (Fraction(1),)


def test_series_random_agreement():
    rng = random.Random(61)
    compared = 0
    for _ in range(60):
        P = Polynomial([rng.randint(-30, 30) for _ in range(rng.randint(1, 5))])
        if P.is_zero:
            continue
        p = rng.choice([2, 3, 5])
        trunk = check_trunk(build_trunk(P, p, 6))
        series = poincare_series(trunk)
        if not series.certified:
            continue
        for e, c in enumerate(series.expand(10)):
            assert c == Fraction(count_solutions(trunk, e), p**e)
        compared += 1
    assert compared >= 30


# ----------------------------------------------------------------------
# quadratic classification
# ----------------------------------------------------------------------

def test_classify_examples():
    result = classify_quadratic(parse("(X-1)*(X-2)+5"), 5)
    assert (result.kind, result.base_length) == ("K2", 0)
    result = classify_quadratic(parse("(X-1)^2+3^5"), 3)
    assert (result.kind, result.base_length) == ("K1", 2)
    result = classify_quadratic(X**2, 3)
    assert (result.kind, result.base_length) == ("Kinf", None)
    result = classify_quadratic(parse("(X-1)^2+3^4"), 3)
    assert (result.kind, result.base_length) == ("K0", 2)


def test_classify_errors():
    with pytest.raises(ValueError, match="not quadratic"):
        classify_quadratic(X**3, 5)
    with pytest.raises(ValueError, match="odd prime"):
        classify_quadratic(X**2, 2)
    with pytest.raises(ValueError, match="odd prime"):
        classify_quadratic(X**2, 9)
    with pytest.raises(ValueError, match="leading coefficient"):
        classify_quadratic(3 * X**2 + X, 3)


def _random_quadratics(rng, count):
    """Mix of unconstrained, valuation-forced, and squared (D = 0) quadratics."""
    out = []
    while len(out) < count:
        p = rng.choice([3, 5, 7, 11])
        style = rng.randrange(4)
        if style == 0:
            a, b, c = (rng.randint(-100, 100) for _ in range(3))
        elif style == 3:
            a = rng.randint(-100, 100)
            r = rng.randint(-50, 50)
            b, c = -2 * a * r, a * r * r  # a*(X-r)^2, discriminant 0
        else:
            r = rng.randint(-20, 20)
            v = rng.randint(0, 6)
            s = rng.randint(-40, 40)
            if s % p == 0:
                s += 1
            a, b, c = 1, -2 * r, r * r - s * p**v  # (X-r)^2 - s*p^v
        if a == 0 or a % p == 0:
            continue
        out.append((Polynomial([c, b, a]), p))
    return out


def test_classification_agrees_with_trunk_shape():
    rng = random.Random(67)
    for P, p in _random_quadratics(rng, 220):
        expected = classify_quadratic(P, p)
        stem = 6 if expected.base_length is None else expected.base_length
        trunk = check_trunk(build_trunk(P, p, 2 * stem + 4))
        observed = quadratic_class_from_trunk(trunk)
        assert observed == expected, (str(P), p)


def test_trunk_classification_raises_on_an_open_stem():
    # (kind, stem) from the discriminants -4*3^8, 16*3^6 and -4*3^7
    cases = [("(X-1)^2+3^8", "K0", 4), ("(X-1)^2-4*3^6", "K2", 3), ("(X-1)^2+3^7", "K1", 3)]
    for text, kind, stem in cases:
        P = parse(text)
        assert classify_quadratic(P, 3) == QuadraticClass(kind, stem)
        with pytest.raises(InsufficientDepthError, match="stem is still open at level 2"):
            quadratic_class_from_trunk(build_trunk(P, 3, 2))
        trunk = check_trunk(build_trunk(P, 3, 2 * stem + 4))
        assert quadratic_class_from_trunk(trunk) == QuadraticClass(kind, stem)
    # discriminant 0: power-certified at level 1
    trunk = check_trunk(build_trunk(parse("(X-1)^2"), 3, 1))
    assert quadratic_class_from_trunk(trunk) == QuadraticClass("Kinf", None)


def test_k1_dead_end_property():
    rng = random.Random(71)
    seen = 0
    for P, p in _random_quadratics(rng, 400):
        result = classify_quadratic(P, p)
        if result.kind != "K1":
            continue
        trunk = build_trunk(P, p, 2 * result.base_length + 4)
        node = trunk.root
        for _ in range(result.base_length):
            assert len(node.children) == 1 and node.children[0].t == 2
            node = node.children[0]
        assert len(node.children) == 1
        tip = node.children[0]
        assert tip.t == 1 and tip.status == STATUS_LEAF
        # the successor at the dead end really has no roots modulo p
        red = tip.successor.reduce_mod(p)
        assert all(red.evaluate(x, p) != 0 for x in range(p))
        seen += 1
    assert seen >= 20


def test_kinf_has_no_side_branches():
    rng = random.Random(73)
    for P, p in _random_quadratics(rng, 150):
        if classify_quadratic(P, p).kind != "Kinf":
            continue
        trunk = build_trunk(P, p, 8)
        node = trunk.root
        while node.children:
            assert len(node.children) == 1
            assert node.children[0].t == 2
            node = node.children[0]
