"""Trunk construction for polynomial congruences modulo prime powers.

The solutions of P(x) = 0 (mod p**e) across all e form a tree inside the
p-adic congruence tree.  That tree can be exponentially large, but it is
fully determined by a compact subtree, the trunk: each trunk vertex
(r, k) carries a thickness t with P(r + p*X) = p**t * Q(X), and the
cumulative thickness phi along the path tells exactly which levels the
vertex accounts for.  This module computes thicknesses, successors and
residual degrees, builds the trunk level by level, certifies infinite
branches (simple roots, and the simple roots of S in a power c*S**m,
whose branches repeat thickness m forever), and lifts their simple roots
to arbitrary prime-power moduli.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

from .polynomial import Polynomial, _taylor_shift, reduced_roots
from .primes import is_prime

STATUS_EXPANDED = "expanded"
STATUS_LEAF = "leaf"
STATUS_HENSEL = "hensel-certified"
STATUS_POWER = "power-certified"
STATUS_UNDETERMINED = "undetermined"

#: Branches certified to go on forever past phi, one vertex per level,
#: each adding the certified vertex's thickness t.
CERTIFIED = (STATUS_HENSEL, STATUS_POWER)

class NotSimpleRootError(ValueError):
    """hensel_lift was handed a root whose derivative vanishes mod p."""


def _unit_content(P: Polynomial, p: int) -> bool:
    return any(c % p for c in P.coeffs)


def thickness(P: Polynomial, r: int, p: int, below: int | None = None) -> tuple[int, Polynomial]:
    """Thickness t and successor Q of P at a mod-p root r.

    P(r + p*X) = p**t * Q(X) with t maximal, so p does not divide Q.
    Requires p not dividing P itself and P(r) = 0 (mod p).  With a_j the
    coefficients of P(r + X), t = min_j (j + v_p(a_j)); each valuation below
    t - j, t the least so far, is read off one remainder a_j % p**(t - j) by
    small-int divisions, at j = 0 also the root test; Q_j = a_j * p**(j - t).

    With below >= 1 only a_j for j < below are computed, in O(deg(P) * below)
    steps.  Since j + v_p(a_j) >= below for every other j, they give
    t' = min(t, below) exactly, and the terms Q_j, j < below, with t' for t.
    When t < below these equal the exact successor's modulo p**(below - t):
    every term dropped is a_j * p**(j - t) with j >= below.
    """
    if P.is_zero or not _unit_content(P, p):
        raise ValueError("unnormalized input: p divides P")
    if below is not None and below < 1:
        raise ValueError("below must be positive")
    a = _taylor_shift(P.coeffs, r, below)
    t = len(a)
    for j, c in enumerate(a):
        if j < t and (rem := c % p ** (t - j)):  # v_p(a_j) < t - j
            t = j
            while rem % p == 0:
                rem, t = rem // p, t + 1
            if t == 0:  # a_0 = P(r)
                raise ValueError(f"not a root: P({r}) is nonzero modulo {p}")
    return t, Polynomial._of([c // p ** (t - j) if j < t else c * p ** (j - t)
                              for j, c in enumerate(a)])


def residual_degree(Q: Polynomial, p: int) -> int:
    """Degree of Q reduced modulo p; requires p not dividing Q."""
    if Q.is_zero or not _unit_content(Q, p):
        raise ValueError("unnormalized input: p divides Q")
    return Q.reduce_mod(p).degree


def hensel_lift(P: Polynomial, x1: int, p: int, e: int) -> int:
    """Lift a simple mod-p root of P to the unique root modulo p**e.

    Newton doubling: with x a root modulo p**k and inv = 1/P'(x) modulo
    p**k, x - P(x) * inv is the root modulo p**(2k).  Each round refreshes
    inv from p**(k/2) to p**k by one Newton step inv * (2 - P'(x) * inv),
    then doubles k, up to e: a few Horner passes at the final precision.
    A linear P is solved outright with one inverse modulo p**e.
    Returns the representative in [0, p**e).
    """
    if e < 1:
        raise ValueError("e must be positive")
    dP = P.derivative()
    slope = dP.evaluate(x1, p)
    if P.evaluate(x1, p) != 0 or slope == 0:
        raise NotSimpleRootError(f"not a simple root: x = {x1} modulo {p}")
    if P.degree == 1:
        (b, a), m = P.coeffs, p**e
        return -b * pow(a, -1, m) % m
    x, inv, k = x1 % p, pow(slope, -1, p), 1
    while k < e:
        m = p ** k
        inv = inv * (2 - dP.evaluate(x, m) * inv) % m
        k = min(2 * k, e)
        m = p ** k
        x = (x - P.evaluate(x, m) * inv) % m
    return x


@dataclass(slots=True)
class TrunkNode:
    """Vertex (r, k) of the trunk: the residue class r modulo p**k.

    t is the thickness at this vertex (None on the root, which carries
    none), phi the cumulative thickness along the path from the root,
    successor the polynomial driving the next level, and s its residual
    degree (degree of the successor reduced mod p).  A certified vertex's
    continuation lifts hensel_root, the simple root mod p of its tail: the
    successor on a Hensel vertex, S(r + p*X) / p on a power one.  In a
    levels_only trunk (build_trunk) successors are kept only modulo
    p**(max_level - phi), and t, at phi = max_level, only up to there.
    """

    r: int
    k: int
    t: int | None
    phi: int
    successor: Polynomial
    s: int
    status: str = STATUS_UNDETERMINED
    children: list["TrunkNode"] = field(default_factory=list)
    tail: Polynomial | None = None
    hensel_root: int | None = None


@dataclass
class Trunk:
    """The trunk of P for the prime p, expanded down to built_depth.

    P is normalized as p**t0 * P0 with p not dividing P0; all vertex data
    refers to P0, and the solver applies the t0 shift.
    """

    p: int
    t0: int
    P0: Polynomial
    root: TrunkNode
    built_depth: int

    def iter_nodes(self, below: float = math.inf) -> Iterator[TrunkNode]:
        """All non-root vertices, preorder, children in increasing residue; none
        under a vertex whose phi is at least below."""
        stack = list(reversed(self.root.children))
        while stack:
            node = stack.pop()
            yield node
            if node.phi < below:
                stack.extend(reversed(node.children))

    @property
    def d_p(self) -> int:
        """Degree of P0 reduced modulo p; bounds the width of every level."""
        return self.root.s

    @property
    def d_trunk(self) -> int:
        """Branch-tip count: finite leaves plus certified or open branches."""
        return sum(1 for n in self.iter_nodes() if n.status != STATUS_EXPANDED)

    def undetermined_nodes(self) -> list[TrunkNode]:
        return [n for n in self.iter_nodes() if n.status == STATUS_UNDETERMINED]

    @property
    def fully_resolved(self) -> bool:
        """True when every branch ends in a leaf or a certified infinite tail."""
        return not self.undetermined_nodes()


def build_trunk(P: Polynomial, p: int, max_level: int, *,
                levels_only: bool = False) -> Trunk:
    """Build the trunk of P for the prime p down to level max_level.

    Per level, the roots of the current successor modulo p come from
    reduced_roots, in about deg(P)**2 * log p operations mod p, and each
    root gets a child carrying its thickness, successor and residual
    degree.  Each successor is reduced mod p once, up to X**t (p divides the
    rest), for both its residual degree and its roots.

    Branch endings:
      * residual degree 0, or no mod-p roots of the successor: "leaf";
      * thickness 1 with residual degree 1: "hensel-certified" (a simple
        root whose unique infinite thickness-1 continuation is lifted on
        demand by Newton doubling rather than stored);
      * a level-1 vertex at a simple root r mod p of S, where P0 = c*S**m
        with S primitive and m >= 2, even at max_level 1: "power-certified",
        thickness m at every further level along the lifted root of S (the
        test runs at level-1 vertices with t = s = m, m | deg P0, once per m);
      * anything still open at max_level: "undetermined".

    With levels_only, a branch stops once its cumulative thickness phi
    reaches max_level instead of its level k, and every successor is kept
    only modulo p**(max_level - phi): a vertex's children come from
    thickness(successor, rho, p, below) with below = max_level - phi, which
    shifts only the below Taylor coefficients that those levels read.  So
    P0(r + p**k X) = p**phi * successor holds modulo p**max_level, not
    exactly.  A child with t' = below reaches phi = max_level; it is known
    only to cover every level up to there, so it stays "undetermined" with
    the zero successor and s = 0, never a leaf or certified.  Since phi >= k
    this never builds deeper than the full trunk, and it answers every query
    at e <= max_level + t0 exactly as the full trunk does; queries past that
    need a rebuild.  The trunk depends only on P0 modulo p**max_level, up
    to the power certificate, which tests P0 itself.
    """
    if not isinstance(max_level, int) or max_level < 1:
        raise ValueError("max_level must be a positive integer")
    if P.is_zero:
        raise ValueError("cannot build a trunk for the zero polynomial")
    if p < 2 or not is_prime(p):
        raise ValueError(f"{p} is not prime")

    t0, p0 = P.p_content(p)
    red = p0.reduce_mod(p)
    root = TrunkNode(r=0, k=0, t=None, phi=0, successor=p0, s=red.degree)
    roots_of_powers: dict[int, Polynomial | None] = {}  # m -> S with P0 = c*S**m
    # each open vertex (r, k) travels with its successor reduced mod p and p**k
    stack = [(root, red, 1)]
    while stack:
        node, red, pk = stack.pop()
        if node.s == 0:
            # successor is a nonzero constant mod p: no roots ever
            node.status = STATUS_LEAF
            continue
        if node.t == 1:
            # thickness 1 with s = 1: a simple root, infinite by lifting
            node.status, node.tail = STATUS_HENSEL, node.successor
        elif node.k == 1 and node.t == node.s and p0.degree % node.t == 0:
            m = node.t
            if m not in roots_of_powers:
                roots_of_powers[m] = _power_root(p0, m)
            if (S := roots_of_powers[m]) is not None:
                # S(r + p*X) = p * tail and the successor is c * tail**m; as
                # s = m, the tail is linear mod p: r is a simple root of S
                node.status = STATUS_POWER
                node.tail = Polynomial._of([c // p for c in S.shift_scale(node.r, p).coeffs])
                red = node.tail.reduce_mod(p)
        if node.tail is not None:
            b, a = red.coeffs
            node.hensel_root = -b * pow(a, -1, p) % p
            continue
        if node.k >= max_level:
            node.status = STATUS_UNDETERMINED
            continue

        roots = reduced_roots(red, p)
        if not roots:
            node.status = STATUS_LEAF
            continue
        node.status = STATUS_EXPANDED
        below = max_level - node.phi if levels_only else None
        for rho in roots:
            t, successor = thickness(node.successor, rho, p, below)
            if t == below:
                # phi reaches max_level; nothing of the successor is known
                node.children.append(TrunkNode(r=node.r + rho * pk, k=node.k + 1, t=t,
                                               phi=max_level, successor=Polynomial(), s=0))
                continue
            red = Polynomial._of([c % p for c in successor.coeffs[:t + 1]])
            child = TrunkNode(r=node.r + rho * pk, k=node.k + 1, t=t,
                              phi=node.phi + t, successor=successor,
                              s=red.degree)
            node.children.append(child)
            stack.append((child, red, pk * p))
    return Trunk(p=p, t0=t0, P0=p0, root=root, built_depth=max_level)


def _power_root(Q: Polynomial, m: int) -> Polynomial | None:
    """The primitive S, lc(S) > 0, if Q = c*S**m for m dividing n = deg Q, else None.

    With a = lc(Q) and d = n/m, Q = a*R**m for a monic rational R exactly when
    the monic F = a**(n-1) * Q(X/a) is U**m with U = a**d * R(X/a), which lies
    in Z[X] by Gauss's lemma.  U's coefficients u_k of X**(d-k) come from the
    top by J.C.P. Miller's recurrence for F**(1/m); a non-power fails at the
    first u_k that is not an integer or, past k = d, not zero.  S is U(a*X)
    made primitive.
    """
    cs = Q.coeffs[::-1]
    n, a = len(cs) - 1, cs[0]
    d = n // m
    f = [1] + [c * a ** (j - 1) for j, c in enumerate(cs) if j]
    u = [1]
    for k in range(1, n + 1):
        total = sum(((m + 1) * j - k * m) * f[j] * u[k - j] for j in range(max(1, k - d), k + 1))
        if total % (k * m) or (k > d and total):
            return None
        u.append(total // (k * m))
    S = [u[k] * a ** (d - k) for k in range(d, -1, -1)]
    g = math.gcd(*S)
    return Polynomial._of([c // (g if S[-1] > 0 else -g) for c in S])
