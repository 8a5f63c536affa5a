import hashlib
import math
import random
from collections import Counter

import pytest

from padic_trunk import (
    NotSimpleRootError,
    Polynomial,
    X,
    build_trunk,
    hensel_lift,
    parse,
    residual_degree,
    thickness,
    val_p,
)
from padic_trunk.trunk import (
    STATUS_EXPANDED,
    STATUS_HENSEL,
    STATUS_LEAF,
    STATUS_POWER,
)

from conftest import TRUNK_CASES
from invariants import check_trunk


def taylor_thickness(P, r, p):
    """Independent thickness: min over i of val_p(P^(i)(r)/i! * p**i)."""
    best = math.inf
    deriv = P
    for i in range(P.degree + 1):
        if i > 0:
            deriv = deriv.derivative()
        numerator = deriv.evaluate(r)
        assert numerator % math.factorial(i) == 0
        coeff = numerator // math.factorial(i)
        v = val_p(coeff, p)
        best = min(best, v + i if v != math.inf else math.inf)
    return best


def taylor_residual_degree(P, r, p, t):
    """Independent residual degree: largest i with val_p(a_i * p**i) = t."""
    largest = None
    deriv = P
    for i in range(P.degree + 1):
        if i > 0:
            deriv = deriv.derivative()
        coeff = deriv.evaluate(r) // math.factorial(i)
        v = val_p(coeff, p)
        if v != math.inf and v + i == t:
            largest = i
    return largest


# ----------------------------------------------------------------------
# thickness and residual degree
# ----------------------------------------------------------------------

def test_thickness_examples():
    P = parse("(X^2+3)*(X^2+3*X+9)")
    t, q = thickness(P, 0, 3)
    assert t == 3
    assert q == (3 * X**2 + 1) * (X**2 + X + 1)

    t, q = thickness((3 * X**2 + 1) * (X**2 + X + 1), 1, 3)
    assert t == 1
    assert q == (27 * X**2 + 18 * X + 4) * (3 * X**2 + 3 * X + 1)

    for p in (2, 3, 5, 7, 11):
        t, q = thickness(X**3 + p * X**2 + p * X, 0, p)
        assert t == 2
        assert q == p * X**3 + p * X**2 + X


def test_thickness_errors():
    with pytest.raises(ValueError, match="not a root"):
        thickness(X + 1, 1, 3)
    with pytest.raises(ValueError, match="unnormalized"):
        thickness(3 * X + 9, 0, 3)
    with pytest.raises(ValueError, match="unnormalized"):
        thickness(Polynomial(), 0, 3)


def test_residual_degree_examples():
    for p in (2, 5, 11):
        assert residual_degree(p * X**3 + p * X**2 + X, p) == 1
    assert residual_degree((3 * X**2 + 1) * (X**2 + X + 1), 3) == 2
    assert residual_degree(Polynomial([1]), 7) == 0
    with pytest.raises(ValueError, match="unnormalized"):
        residual_degree(5 * X, 5)


def test_thickness_matches_taylor_formula():
    rng = random.Random(41)
    found = 0
    while found < 200:
        P = Polynomial([rng.randint(-40, 40) for _ in range(rng.randint(2, 7))])
        if P.is_zero:
            continue
        p = rng.choice([2, 3, 5, 7, 11])
        if not any(c % p for c in P.coeffs):
            continue
        for r in range(p):
            if P.evaluate(r, p) != 0:
                continue
            t, q = thickness(P, r, p)
            assert t == taylor_thickness(P, r, p)
            assert residual_degree(q, p) == taylor_residual_degree(P, r, p, t)
            assert 1 <= t <= P.degree
            found += 1
            if found >= 200:
                break
    assert found >= 200


# ----------------------------------------------------------------------
# hensel lifting
# ----------------------------------------------------------------------

def test_hensel_lift_examples():
    P = parse("X*(X-1)^2+25")
    assert hensel_lift(P, 0, 5, 3) == 100
    assert hensel_lift(P, 0, 5, 4) == 600
    assert hensel_lift(X, 0, 7, 5) == 0


def test_hensel_lift_properties():
    rng = random.Random(43)
    found = 0
    while found < 60:
        P = Polynomial([rng.randint(-30, 30) for _ in range(rng.randint(2, 6))])
        if P.is_zero:
            continue
        p = rng.choice([2, 3, 5, 7])
        for r in range(p):
            if P.evaluate(r, p) == 0 and P.derivative().evaluate(r, p) != 0:
                e = rng.randint(1, 8)
                x = hensel_lift(P, r, p, e)
                assert 0 <= x < p**e
                assert x % p == r % p
                assert P.evaluate(x, p**e) == 0
                found += 1


def test_hensel_lift_rejects_non_simple_roots():
    with pytest.raises(NotSimpleRootError, match="not a simple root"):
        hensel_lift(X**2, 0, 3, 4)
    with pytest.raises(NotSimpleRootError):
        hensel_lift(X + 1, 1, 3, 2)  # not a root at all


# ----------------------------------------------------------------------
# trunk construction
# ----------------------------------------------------------------------

def test_trunk_two_vertices(checked_build):
    trunk = checked_build("(X^2+3)*(X^2+3X+9)", 3, 5)
    nodes = [(n.r, n.k, n.t, n.phi, n.status) for n in trunk.iter_nodes()]
    assert nodes == [
        (0, 1, 3, 3, STATUS_EXPANDED),
        (3, 2, 1, 4, STATUS_LEAF),
    ]


def test_trunk_simple_root(checked_build):
    trunk = checked_build("X", 5, 3)
    nodes = list(trunk.iter_nodes())
    assert len(nodes) == 1
    node = nodes[0]
    assert (node.r, node.k, node.t, node.status) == (0, 1, 1, STATUS_HENSEL)
    assert node.hensel_root == 0


def test_trunk_power(checked_build):
    trunk = checked_build("X^2", 3, 6)
    nodes = list(trunk.iter_nodes())
    assert [(n.r, n.k, n.t, n.status) for n in nodes] == [(0, 1, 2, STATUS_POWER)]
    assert (nodes[0].tail, nodes[0].hensel_root) == (X, 0)
    # 3*(4X - 1)**2 at 3: root 1, and 4*(1 + 3X) - 1 = 3*(4X + 1)
    trunk = checked_build("3*(4*X-1)^2", 3, 1)
    assert trunk.t0 == 1 and trunk.fully_resolved
    [node] = trunk.iter_nodes()
    assert (node.r, node.k, node.t, node.phi, node.status) == (1, 1, 2, 2, STATUS_POWER)
    assert (node.tail, node.hensel_root) == (4 * X + 1, 2)
    # only a power c*S^m, m >= 2, at a simple root of S mod p: not at the
    # double root of X^2-1 mod 2, nor beside a factor of another multiplicity
    for text, p in [("X", 3), ("(X-1)^2*(X-2)", 3), ("(3X-1)^2", 3), ("X^2+3", 3),
                    ("(X^2-1)^2", 2), ("(X^2-17)^2*(X-3)*(X-5)", 13)]:
        assert STATUS_POWER not in {n.status for n in build_trunk(parse(text), p, 4).iter_nodes()}


def test_trunk_split_branches(checked_build):
    trunk = checked_build("X*(X-1)^2+25", 5, 5)
    nodes = {(n.r, n.k): n for n in trunk.iter_nodes()}
    assert set(nodes) == {(0, 1), (1, 1), (11, 2), (16, 2)}
    assert nodes[(0, 1)].status == STATUS_HENSEL
    assert nodes[(1, 1)].t == 2
    assert nodes[(11, 2)].status == STATUS_HENSEL
    assert nodes[(16, 2)].status == STATUS_HENSEL


def test_trunk_undetermined(checked_build):
    trunk = checked_build("(X^2-17)^2*(X-3)", 13, 3)
    open_nodes = trunk.undetermined_nodes()
    assert len(open_nodes) == 2
    assert all(n.k == 3 and n.t == 2 for n in open_nodes)
    assert not trunk.fully_resolved


def test_trunk_content_normalization(checked_build):
    trunk = checked_build("9*X^2+9", 3, 3)
    assert trunk.t0 == 2
    assert trunk.P0 == X**2 + 1
    assert trunk.root.status == STATUS_LEAF


def test_trunk_constant_polynomial(checked_build):
    trunk = checked_build("7", 7, 2)
    assert trunk.t0 == 1
    assert list(trunk.iter_nodes()) == []


def test_build_trunk_errors():
    with pytest.raises(ValueError, match="zero polynomial"):
        build_trunk(Polynomial(), 3, 2)
    with pytest.raises(ValueError, match="not prime"):
        build_trunk(X, 6, 2)
    with pytest.raises(ValueError, match="max_level"):
        build_trunk(X, 3, 0)
    # no cap on p: roots mod p come from gcd(Q, X^p - X), not a scan
    trunk = build_trunk(X, 1_000_003, 2)
    assert [n.status for n in trunk.iter_nodes()] == [STATUS_HENSEL]


def test_hensel_certified_branches_continue_with_thickness_one(fixture_trunks):
    for _, p, trunk in fixture_trunks:
        for node in trunk.iter_nodes():
            if node.status != STATUS_HENSEL:
                continue
            Q = node.successor
            red = Q.reduce_mod(p)
            roots = [x for x in range(p) if red.evaluate(x, p) == 0]
            assert roots == [node.hensel_root]
            for _ in range(3):
                t, Q = thickness(Q, roots[0], p)
                assert t == 1
                red = Q.reduce_mod(p)
                assert red.degree == 1
                roots = [x for x in range(p) if red.evaluate(x, p) == 0]
                assert len(roots) == 1


def test_power_certified_branches_follow_the_lifted_tail(fixture_trunks):
    powers = 0
    for _, p, trunk in fixture_trunks:
        for node in trunk.iter_nodes():
            if node.status != STATUS_POWER:
                continue
            powers += 1
            depth = 2 * node.t + 3
            y = hensel_lift(node.tail, node.hensel_root, p, depth)
            Q = node.successor
            for level in range(depth):
                red = Q.reduce_mod(p)
                roots = [x for x in range(p) if red.evaluate(x, p) == 0]
                assert roots == [y // p**level % p], "one root: the tail's digit"
                t, Q = thickness(Q, roots[0], p)
                assert t == node.t
    assert powers == 4


def test_random_trunks_pass_invariants():
    rng = random.Random(47)
    built = 0
    for _ in range(80):
        P = Polynomial([rng.randint(-50, 50) for _ in range(rng.randint(1, 6))])
        if P.is_zero:
            continue
        p = rng.choice([2, 3, 5, 7])
        check_trunk(build_trunk(P, p, rng.randint(1, 6)))
        built += 1
    assert built >= 70


@pytest.mark.parametrize("degree", [11, 31, 51])
def test_trunks_at_a_61_bit_prime_are_complete(degree):
    # a factor (X - r)^t - (q * a)^t with t = 2 or 3 gives a vertex at level 1
    # whose successor X^t - a^t has t roots mod q (3 divides q - 1); a random
    # cofactor fills the degree
    q = 2**61 - 1
    rng = random.Random(degree)
    P, left, t = Polynomial([1]), degree, 3
    while left > 3:
        r, a = rng.randrange(q), rng.randrange(1, q)
        P = P * (Polynomial([-r, 1]) ** t - Polynomial([(q * a)**t]))
        left, t = left - t, t - 1 or 3
    P = P * Polynomial([rng.randrange(-q, q) for _ in range(left)] + [1])
    assert P.degree == degree
    for levels_only in (False, True):
        trunk = check_trunk(build_trunk(P, q, 4, levels_only=levels_only), levels_only)
        expanded = [node for node in trunk.iter_nodes() if node.status == STATUS_EXPANDED]
        assert len(expanded) >= 3
    # a builder that dropped a root would now be caught at its vertex
    expanded[-1].children.pop()
    with pytest.raises(AssertionError, match="a root of the successor mod p has no child"):
        check_trunk(trunk, levels_only=True)


def test_children_agree_with_thickness_and_residual_degree_of_their_parent():
    """build_trunk's one reduction per vertex gives the public primitives' answers."""
    rng = random.Random(61)
    trunks = [build_trunk(parse(text), p, lvl) for text, p, lvl in GOLDEN_TRUNKS]
    while len(trunks) < 200:
        P = Polynomial([rng.randint(-40, 40) for _ in range(rng.randint(1, 4))])
        P = P * Polynomial([rng.randint(-40, 40), rng.randint(1, 3)]) ** rng.randint(1, 3)
        if not P.is_zero:
            trunks.append(build_trunk(P, rng.choice([2, 3, 5, 7, 13, 257]), rng.randint(1, 12)))
    children = 0
    for trunk in trunks:
        p = trunk.p
        assert trunk.root.s == residual_degree(trunk.P0, p)
        for node in [trunk.root, *trunk.iter_nodes()]:
            for child in node.children:
                rho = (child.r - node.r) // p**node.k
                assert (child.t, child.successor) == thickness(node.successor, rho, p)
                assert child.s == residual_degree(child.successor, p)
                children += 1
    assert children > 1000


# ----------------------------------------------------------------------
# golden snapshots: the builder must keep returning identical trunks
# ----------------------------------------------------------------------

# (poly, p, max_level) -> SHA-256 of the preorder vertex list and the
# vertex count per status, both taken from the root down.  Recorded with
# the earlier ancestor-scan builder and per-coefficient p_content; the
# two linear powers X^2 and (4*X-1)^2 again when their level-1 vertex
# became power-certified, and (X^2-17)^2 again when powers c*S^m were
# certified at the simple roots of S; its open branches moved to
# (X^2-17)^2*(X-3), which adds one Hensel vertex at the root 3.
GOLDEN_TRUNKS = {
    ("(X^2+3)*(X^2+3*X+9)", 3, 5): (
        "2bab217eab5a6c56b754bd8e9e9119c198a1827eed95a96f12e82e80bad767d9",
        {"expanded": 2, "leaf": 1}),
    ("X*(X-1)^2+25", 5, 5): (
        "3d283e4bcee02be231af21dd7a90bfa3cbec525db14f3ab1262c8494c26b8d18",
        {"expanded": 2, "hensel-certified": 3}),
    ("X", 5, 3): (
        "dc41a8cc6492110866f72053a53e4ddb44854e09b727b736e3ea5f297f38f08a",
        {"expanded": 1, "hensel-certified": 1}),
    ("X^2", 3, 6): (
        "26a5c2cddc6c9a44990f96f278ee933eaaacd243bbb84d26f0a3de90530527d7",
        {"expanded": 1, "power-certified": 1}),
    ("(4*X-1)^2", 3, 8): (
        "a728b9041b8ab0eb0ecbf0b39777f86a72a8875d6d888bd71f3c2659b2ee3f4f",
        {"expanded": 1, "power-certified": 1}),
    ("(X-1)^2+3^5", 3, 6): (
        "48e4063914f352dd69e45b29d540f833822df44ed9b844a7a7941ca765f947c9",
        {"expanded": 3, "leaf": 1}),
    ("(X-1)^2+3^4", 3, 6): (
        "b101d7dad83bca1c63b734a24b28b916b6693ca6498cc9fc827b236f5de43287",
        {"expanded": 2, "leaf": 1}),
    ("(X-1)*(X-2)+5", 5, 4): (
        "98159fdd387ded94b023773f5c4fd188096464fbad4acba814e5f9991675094e",
        {"expanded": 1, "hensel-certified": 2}),
    ("(X^2-17)^2", 13, 3): (
        "2081ec28b2c8741a210414c09d4cc0a2c5b7fbef64d2cecdbe7af6200ccc477d",
        {"expanded": 1, "power-certified": 2}),
    ("(X^2-17)^2*(X-3)", 13, 3): (
        "df7f92b7d7f2c1ef1436656d9f6144d82fec3e5567e0ec5e18d733c238a50fe0",
        {"expanded": 5, "hensel-certified": 1, "undetermined": 2}),
    ("9*X^2+9", 3, 3): (
        "2a59f05158a2a1de73defe410ee59f097666d962327849ca839c470b2fa0d367",
        {"leaf": 1}),
    ("7", 7, 2): (
        "9c9897036464a9cbe4b6e2d7d79806186ff8ca05324706b7291279892245152b",
        {"leaf": 1}),
    ("X^2+1", 3, 3): (
        "9c362a1747fef9df21e33e5f55c84841dc53164ad95ff32514ff108f532c5417",
        {"leaf": 1}),
    ("(X^2-17)^2", 13, 60): (
        "2081ec28b2c8741a210414c09d4cc0a2c5b7fbef64d2cecdbe7af6200ccc477d",
        {"expanded": 1, "power-certified": 2}),
    ("(X^2-17)^2*(X-3)", 13, 60): (
        "8d0d4ef304f00c2f81b6ca04a60008b7f92ca0869289cbe304e84187835b45ea",
        {"expanded": 119, "hensel-certified": 1, "undetermined": 2}),
    ("X^4*(X-1)^3*(X+1)^2", 2, 40): (
        "3e4fc3fd67283af355e31754bc17a88cbca21b3f187568a2539cb397987c1040",
        {"expanded": 117, "undetermined": 3}),
}


def trunk_snapshot(trunk):
    nodes = [trunk.root, *trunk.iter_nodes()]
    rows = [(n.r, n.k, n.t, n.phi, n.s, n.status, n.hensel_root,
             n.successor.coeffs) for n in nodes]
    digest = hashlib.sha256(repr((trunk.t0, rows)).encode()).hexdigest()
    return digest, dict(Counter(n.status for n in nodes))


def test_golden_trunks_cover_every_fixture_case():
    assert {(text, p, lvl) for text, p, lvl in TRUNK_CASES} <= set(GOLDEN_TRUNKS)


@pytest.mark.parametrize("case", list(GOLDEN_TRUNKS), ids=str)
def test_trunk_matches_golden_snapshot(case):
    text, p, max_level = case
    assert trunk_snapshot(build_trunk(parse(text), p, max_level)) == GOLDEN_TRUNKS[case]
