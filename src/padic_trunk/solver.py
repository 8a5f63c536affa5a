"""Answer membership, counting and enumeration questions from a trunk.

A trunk vertex (r, k) with thickness t and cumulative thickness phi
accounts for exactly the levels e with phi - t < e <= phi, where it
contributes the full residue class r mod p**k, i.e. p**(e-k) solutions.
A certified infinite branch goes on past phi, one vertex of thickness t
per level: at level e its class is mod p**(k + ceil((e - phi) / t)), so
t levels on its count is p**(t-1) times as large.  These are levels of
P's content-free part; the root's window is the levels up to P's content
exponent, where every x solves.  Every query reads its answer off one pass
over these windows: counting sums the ball sizes, at one level or, each
tail extended by that recurrence, at every level up to a bound for the
Poincaré series; ball listings lift the simple root of a certified
vertex's tail, and membership evaluates that tail once.  Composite moduli
are factored and recombined by the Chinese remainder theorem.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain, groupby, product
from math import prod
from typing import Iterator, Sequence

from .polynomial import Polynomial, _reduce_coeffs
from .primes import PrimePower, factorize
from .trunk import (
    CERTIFIED,
    STATUS_UNDETERMINED,
    Trunk,
    TrunkNode,
    build_trunk,
    hensel_lift,
)

#: Default ceiling on the number of explicitly listed solutions.
DEFAULT_BUDGET = 10**7
#: Members per block of a streamed listing, about.
_BLOCK = 4096


class InsufficientDepthError(ValueError):
    """The trunk has an undetermined branch shallower than the query level."""


class EnumerationBudgetError(ValueError):
    """The explicit solution list would exceed the configured budget."""


@dataclass(frozen=True)
class SolutionBall:
    """The residue class { x : x = r (mod p**k) }."""

    r: int
    k: int


@dataclass
class SolutionSet:
    """Disjoint-ball description of the solutions modulo p**e.

    count is the exact number of solutions in [0, p**e); each ball, in order
    of (k, r), contributes p**(e - k) of them.
    """

    p: int
    e: int
    balls: list[SolutionBall]
    count: int


@dataclass
class CrtSolution:
    """Solutions modulo a composite n, with the per-prime-power structure.

    solutions is None when the call asked for counting only; it is the
    explicit sorted list otherwise.
    """

    n: int
    count: int
    solutions: list[int] | None
    factors: list[tuple[PrimePower, SolutionSet]]


def _windows(trunk: Trunk, e: int) -> list[tuple[TrunkNode, int]]:
    """(node, k) for every vertex accounting for level e of P = p**t0 * P0.

    The vertex contributes one ball modulo p**k.  For e <= t0, e = 0
    included, P vanishes modulo p**e everywhere: that is the root's window,
    the one class 0 mod p**0.  Past t0 the vertex data refers to P0 at
    level e1 = e - t0: a vertex contributes its own class when
    phi - t < e1 <= phi, and on a certified tail past phi the class one
    level deeper for each further t levels.  Raises InsufficientDepthError
    when an undetermined branch stops short of e1, ValueError when e < 0.
    """
    if e < 0:
        raise ValueError("e must be non-negative")
    e1 = e - trunk.t0
    if e1 <= 0:
        return [(trunk.root, 0)]
    windows = []
    short = None
    # under a vertex with phi >= e1 every phi - t is >= e1: no window, none short
    for node in trunk.iter_nodes(below=e1):
        if node.phi - node.t < e1 and (e1 <= node.phi or node.status in CERTIFIED):
            # node.k + ceil((e1 - phi) / t), which is node.k inside the window
            windows.append((node, node.k - (node.phi - e1) // node.t))
        elif node.phi < e1 and node.status == STATUS_UNDETERMINED and (
                short is None or node.phi < short.phi):
            short = node
    if short is not None:
        # open vertices sit at built_depth, or shallower with phi >= built_depth
        # in a levels_only trunk, and gain thickness >= 1 per level, so a
        # default rebuild to this level takes short's branch past e1
        raise InsufficientDepthError(
            f"insufficient depth: an undetermined branch at level {short.k}"
            f" only covers levels up to {short.phi + trunk.t0}; rebuild the"
            f" trunk with max_level >= {trunk.built_depth + e1 - short.phi}")
    return windows


def _level_counts(trunk: Trunk, last: int) -> list[int]:
    """[N0_0, ..., N0_last] for P0 = P / p**t0: each vertex's own window, by the
    rule of _windows, then each certified tail of thickness t by the recurrence
    of its period.  The certified windows of each t share one run, extended up
    to last, so this takes O(vertices * t + thicknesses * last) steps.  Every
    open branch must reach last; at built_depth it always does.
    """
    p = trunk.p
    counts = [1] + [0] * last
    runs = defaultdict(lambda: [0] * (last + 1))  # t -> the certified windows of thickness t
    for node in trunk.iter_nodes():
        run = runs[node.t] if node.status in CERTIFIED else counts
        for e in range(node.phi - node.t + 1, min(node.phi, last) + 1):
            run[e] += p ** (e - node.k)
    for t, run in runs.items():
        for e in range(t, last + 1):
            run[e] += p ** (t - 1) * run[e - t]
        counts = [n + m for n, m in zip(counts, run)]
    return counts


def _ball(p: int, node: TrunkNode, k: int) -> SolutionBall:
    """The ball modulo p**k that node contributes, lifting a certified tail."""
    if k == node.k:
        return SolutionBall(node.r, k)
    y = hensel_lift(node.tail, node.hensel_root, p, k - node.k)
    return SolutionBall(node.r + y * p**node.k, k)


def _crt_members(factors: Sequence[tuple[int, list[int]]]) -> list[int]:
    """The sorted x in [0, n = prod m) with x mod m in S for each (m, S), the m
    pairwise coprime and each S distinct mod m.  By increasing |S|, each factor
    joins the sorted members U mod B of those before, which hold their residues
    divided by n / B.  Divided by A = n / (m * B), the members a mod m are
    m * ((u - a / m) mod B) + a: U rotated at a / m mod B.  One sort merges the
    |S| ascending runs, in O(count * log |S|) comparisons."""
    n = prod(m for m, _ in factors)
    members, B = [0], 1
    for m, S in sorted(factors, key=lambda f: len(f[1])):
        over_A, w = pow(n // (m * B), -1, m), pow(m, -1, B)
        scaled, members = [u * m for u in members], []
        for a in (r * over_A % m for r in S):
            c = a * w % B
            i, low, high = bisect_left(scaled, c * m), a - c * m, a + (B - c) * m
            members += [x + low for x in scaled[i:]]
            members += [x + high for x in scaled[:i]]
        members.sort()
        B *= m
    return members


def _class_blocks(groups: dict[int, list[int]], n: int) -> Iterator[list[int]]:
    """The members in [0, n) of disjoint classes r mod M, r in the sorted list
    groups[M] and M | n, as sorted consecutive blocks of about _BLOCK, in
    O(count + blocks * groups) time up to logarithms and O(block + classes) memory.

    One group mod n is cut into blocks.  Otherwise a window of [0, n) expected
    to hold a block takes from each group one range per representative when it
    spans more periods than there are representatives, else each period's
    representatives shifted by j * M, cutting the first and last by bisection;
    one sort merges the groups.
    """
    if list(groups) == [n]:
        yield from (groups[n][i:i + _BLOCK] for i in range(0, len(groups[n]), _BLOCK))
        return
    windows = -(-sum(len(rs) * (n // M) for M, rs in groups.items()) // _BLOCK)
    for i in range(windows):
        lo, hi = n * i // windows, n * (i + 1) // windows
        block: list[int] = []
        for M, rs in groups.items():
            j0, a = divmod(lo, M)
            if len(rs) * M <= hi - lo:
                for r in rs:
                    block.extend(range(lo + (r - a) % M, hi, M))
                continue
            j1, b = divmod(hi, M)
            first, last = bisect_left(rs, a), bisect_left(rs, b)
            for j in range(j0, j1 + 1):
                period = rs[first if j == j0 else 0:last if j == j1 else None]
                block.extend(map((j * M).__add__, period) if j else period)
        if block:
            block.sort()
            yield block


def _listing(decompositions: list[SolutionSet],
             budget: int = DEFAULT_BUDGET) -> Iterator[list[int]]:
    """The blocks of sorted solutions modulo n = prod p_i**e_i, once their count
    is checked against the budget.  Each choice of precisions k_i is one group:
    its balls r_i mod p_i**k_i recombine into sorted classes mod prod p_i**k_i,
    in O(classes * log balls) comparisons and no sort of unordered ints."""
    n = prod(d.p ** d.e for d in decompositions)
    count = prod(d.count for d in decompositions)
    if count > budget:
        raise EnumerationBudgetError(
            f"enumeration too large: {count} solutions exceed the budget {budget}")
    per_factor = [[(d.p ** k, [ball.r for ball in balls])
                   for k, balls in groupby(d.balls, lambda ball: ball.k)] for d in decompositions]
    return _class_blocks({prod(m for m, _ in group): _crt_members(group)
                          for group in product(*per_factor)}, n)


def is_solution(trunk: Trunk, x: int, e: int) -> bool:
    """Decide P(x) = 0 (mod p**e) from the trunk alone."""
    return any(_contains(trunk.p, node, k, x) for node, k in _windows(trunk, e))


def _contains(p: int, node: TrunkNode, k: int, x: int) -> bool:
    """Whether x lies in the ball modulo p**k that node contributes.

    Past node.k the vertex is certified and its tail linear mod p, so one
    evaluation of the tail at y = (x - r) / p**node.k decides.
    """
    pk = p**node.k
    if x % pk != node.r:
        return False
    return k == node.k or node.tail.evaluate((x - node.r) // pk, p**(k - node.k)) == 0


def count_solutions(trunk: Trunk, e: int) -> int:
    """The number N_e of solutions modulo p**e, without enumerating.

    N_0 = 1: the root's class is the one residue modulo p**0.  This never
    materializes continuations, so it stays cheap even for very large e.
    """
    return sum(trunk.p ** (e - k) for _, k in _windows(trunk, e))


def ball_decomposition(trunk: Trunk, e: int) -> SolutionSet:
    """The solutions modulo p**e as pairwise disjoint balls."""
    p = trunk.p
    balls = sorted((_ball(p, node, k) for node, k in _windows(trunk, e)),
                   key=lambda b: (b.k, b.r))
    return SolutionSet(p=p, e=e, balls=balls, count=sum(p ** (e - b.k) for b in balls))


def enumerate_solutions(trunk: Trunk, e: int, *, budget: int = DEFAULT_BUDGET) -> list[int]:
    """Explicit sorted solutions in [0, p**e), streamed from the balls."""
    return list(chain.from_iterable(_listing([ball_decomposition(trunk, e)], budget)))


def brute_force(P: Polynomial, m: int, *, budget: int = DEFAULT_BUDGET) -> list[int]:
    """All x in [0, m) with P(x) = 0 (mod m), by direct evaluation.

    Deliberately independent of the trunk machinery; serves as the
    testing and benchmarking oracle.
    """
    if m < 1:
        raise ValueError("modulus must be positive")
    if m > budget:
        raise EnumerationBudgetError(
            f"enumeration too large: modulus {m} exceeds the budget {budget}")
    return [x for x in range(m) if P.evaluate(x, m) == 0]


def crt_solve(P: Polynomial, n: int, *, count_only: bool = False,
              budget: int = DEFAULT_BUDGET, trunk_builder=build_trunk) -> CrtSolution:
    """Solve P(x) = 0 (mod n) for composite n.

    Factors n and answers each p**e from P modulo p**e, on which its
    solutions depend: the residues of absolute value at most p**e / 2, with
    a nonzero P = 0 mod p**e standing as the constant p**e, go to
    trunk_builder(Q, p, e, levels_only=True), which builds each branch only
    until phi >= e.  A custom trunk_builder is called so too.  Each tuple
    of per-factor balls recombines into one class mod n's divisor
    prod p_i**k_i.  The per-factor ball structure is always returned; the
    explicit list is subject to the budget (and skipped entirely with
    count_only).
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    factors = []
    for p, e in factorize(n):
        residues = _reduce_coeffs(list(P.coeffs), p**e)
        Q = Polynomial._of(residues) if residues or P.is_zero else Polynomial((p**e,))
        trunk = trunk_builder(Q, p, e, levels_only=True)
        factors.append((PrimePower(p, e), ball_decomposition(trunk, e)))
    solutions = None if count_only else list(
        chain.from_iterable(_listing([d for _, d in factors], budget)))
    return CrtSolution(n=n, count=prod(d.count for _, d in factors),
                       solutions=solutions, factors=factors)
