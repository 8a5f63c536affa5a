"""Structural invariant checks applied to every trunk built in the tests."""

from __future__ import annotations

from padic_trunk import InsufficientDepthError, QuadraticClass, brute_force, enumerate_solutions
from padic_trunk.analysis import K0, K1, K2, KINF
from padic_trunk.solver import ball_decomposition
from padic_trunk.trunk import (
    STATUS_EXPANDED,
    STATUS_HENSEL,
    STATUS_LEAF,
    STATUS_POWER,
    STATUS_UNDETERMINED,
    Trunk,
)

#: trunks that went through check_trunk, for suite-level accounting
CHECKED = []


def gfp_multiplicity(coeffs, rho: int, p: int) -> int:
    """Multiplicity of rho as a root of the reduction mod p, by repeated
    synthetic division over GF(p)."""
    cs = [c % p for c in coeffs]
    mult = 0
    while True:
        while cs and cs[-1] == 0:
            cs.pop()
        if len(cs) <= 1:
            return mult
        value = 0
        for c in reversed(cs):
            value = (value * rho + c) % p
        if value != 0:
            return mult
        n = len(cs) - 1
        quotient = [0] * n
        quotient[n - 1] = cs[n]
        for i in range(n - 1, 0, -1):
            quotient[i - 1] = (cs[i] + rho * quotient[i]) % p
        cs = quotient
        mult += 1


def _rem(a, f, p):
    """a mod f over F_p with schoolbook division; lists in ascending order."""
    a = [c % p for c in a]
    inv = pow(f[-1], -1, p)
    while True:
        while a and a[-1] == 0:
            a.pop()
        if len(a) < len(f):
            return a
        c = a[-1] * inv % p
        shift = len(a) - len(f)
        for i, fc in enumerate(f):
            a[shift + i] = (a[shift + i] - c * fc) % p


def distinct_root_count(f, p):
    """deg gcd(f, X**p - X) over F_p, the number of distinct roots of f mod p,
    by square-and-multiply and Euclid; f is reduced mod p, nonzero, in
    ascending order.  Written here, not taken from polynomial, so that it
    checks roots_mod_p and the trunk's children independently."""
    def mulmod(a, b):
        out = [0] * (len(a) + len(b) - 1) if a and b else []
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return _rem(out, f, p)

    power, base, n = [1], [0, 1], p
    while n:
        if n & 1:
            power = mulmod(power, base)
        base = mulmod(base, base)
        n >>= 1
    power = power + [0] * (2 - len(power))
    power[1] -= 1
    a, b = f, _rem(power, f, p)
    while b:
        a, b = b, _rem(a, b, p)
    return len(a) - 1


def _check_balls(trunk: Trunk, e: int) -> None:
    p = trunk.p
    decomposition = ball_decomposition(trunk, e)
    balls = decomposition.balls
    for i in range(len(balls)):
        for j in range(i + 1, len(balls)):
            k = min(balls[i].k, balls[j].k)
            assert balls[i].r % p**k != balls[j].r % p**k, \
                f"balls overlap at e={e}: {balls[i]} {balls[j]}"
    assert decomposition.count == sum(p ** (e - b.k) for b in balls)
    assert len(balls) <= max(trunk.d_trunk, 1)
    if decomposition.count <= 10**5:
        listed = enumerate_solutions(trunk, e)
        assert len(listed) == decomposition.count
        assert len(set(listed)) == len(listed), "duplicate residues"
        if p**e <= 3 * 10**4:
            assert listed == brute_force((trunk.P0 * trunk.p**trunk.t0).reduce_mod(p**e), p**e)


def check_trunk(trunk: Trunk, levels_only: bool = False) -> Trunk:
    """Check the trunk's invariants, among them completeness: an expanded or
    leaf vertex has one child per distinct root of its successor mod p, as
    distinct_root_count counts them.  A levels_only trunk keeps each
    successor only modulo p**(max_level - phi), so its tree-top identity is
    checked modulo p**max_level, and a vertex at phi = max_level, whose
    successor is unknown, must be left undetermined."""
    p = trunk.p
    P0 = trunk.P0
    d = P0.degree
    d_p = P0.reduce_mod(p).degree
    assert trunk.d_p == d_p
    assert trunk.t0 >= 0
    assert any(c % p for c in P0.coeffs), "P0 must not be divisible by p"

    root = trunk.root
    assert (root.r, root.k, root.t, root.phi) == (0, 0, None, 0)
    assert root.successor == P0
    assert root.s == d_p

    width: dict[int, int] = {}
    stack = [root]
    while stack:
        node = stack.pop()
        if node.k > 0:
            assert 1 <= node.t <= d, f"thickness out of range at {(node.r, node.k)}"
            assert 0 <= node.s <= node.t, f"residual degree out of range"
            assert node.phi >= node.k
            assert 0 <= node.r < p**node.k
            width[node.k] = width.get(node.k, 0) + 1
            if node.status == STATUS_HENSEL:
                assert node.t == 1 and node.s == 1
            # the identity P0(r + p**k X) = p**phi * successor, exact in a default trunk
            difference = P0.shift_scale(node.r, p**node.k) - p**node.phi * node.successor
            if levels_only:
                assert all(c % p**trunk.built_depth == 0 for c in difference.coeffs), \
                    f"tree-top congruence fails at {(node.r, node.k)}"
            else:
                assert difference.is_zero, f"tree-top identity fails at {(node.r, node.k)}"
        if levels_only and node.phi >= trunk.built_depth:
            assert node.phi == trunk.built_depth, "a levels_only branch passed max_level"
            assert node.status == STATUS_UNDETERMINED and not node.successor and node.s == 0, \
                f"a vertex at phi = max_level was resolved at {(node.r, node.k)}"
        else:
            assert any(c % p for c in node.successor.coeffs), \
                "successor divisible by p"
        if node.children:
            assert node.status == STATUS_EXPANDED
            assert sum(c.t for c in node.children) <= node.s, \
                f"node rule fails at {(node.r, node.k)}"
            seen = []
            for child in node.children:
                assert child.k == node.k + 1
                assert child.r % p**node.k == node.r
                assert child.phi == node.phi + child.t
                rho = (child.r - node.r) // p**node.k
                seen.append(rho)
                mult = gfp_multiplicity(node.successor.coeffs, rho, p)
                assert child.t <= mult, \
                    f"multiplicity bound fails at {(child.r, child.k)}"
            assert all(a < b for a, b in zip(seen, seen[1:])), \
                "children not in strictly increasing root order"
        else:
            assert node.status != STATUS_EXPANDED
        if node.status in (STATUS_EXPANDED, STATUS_LEAF):
            # completeness: a child at every distinct root of the successor mod p
            red = [c % p for c in node.successor.coeffs]
            while not red[-1]:
                red.pop()
            assert len(node.children) == distinct_root_count(red, p), \
                f"a root of the successor mod p has no child at {(node.r, node.k)}"
        stack.extend(node.children)

    for level, n in width.items():
        assert n <= d_p, f"level {level} wider than d_p={d_p}"
    assert trunk.d_trunk <= d_p <= d

    open_nodes = trunk.undetermined_nodes()
    horizon = min((n.phi for n in open_nodes), default=None)
    max_e1 = 3 if horizon is None else min(3, horizon)
    for e1 in range(1, max_e1 + 1):
        _check_balls(trunk, e1 + trunk.t0)
    if horizon is None:
        # fully resolved: also exercise the lazy continuations
        _check_balls(trunk, trunk.t0 + trunk.built_depth + 2)

    CHECKED.append(trunk)
    return trunk


def quadratic_class_from_trunk(trunk: Trunk) -> QuadraticClass:
    """Read the classification off a built trunk, shape by shape.

    Independent of the discriminant formula; used to cross-check it.
    Kinf is the power certificate of a discriminant-0 quadratic.  A finite
    shape needs base length + 1 levels; on a stem still open at the built
    depth this raises InsufficientDepthError.
    """
    node = trunk.root
    stem = 0
    while True:
        if node.status == STATUS_POWER:
            return QuadraticClass(KINF, None)
        if node.status == STATUS_UNDETERMINED:
            raise InsufficientDepthError(f"insufficient depth: the stem is still open at level"
                                         f" {node.k}; rebuild with max_level > {trunk.built_depth}")
        if node.status == STATUS_LEAF:
            return QuadraticClass(K0, stem)
        kids = node.children
        if len(kids) == 1 and kids[0].t == 2:
            stem += 1
            node = kids[0]
            continue
        if len(kids) == 1 and kids[0].t == 1 and kids[0].status == STATUS_LEAF:
            return QuadraticClass(K1, stem)
        if len(kids) == 2 and all(k.t == 1 and k.status == STATUS_HENSEL for k in kids):
            return QuadraticClass(K2, stem)
        raise ValueError("unexpected trunk shape for a quadratic")
