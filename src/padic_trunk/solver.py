"""Answer membership, counting and enumeration questions from a trunk.

A trunk vertex (r, k) with thickness t and cumulative thickness phi
accounts for the solutions of exactly the levels e with
phi - t < e <= phi, where it contributes the full residue class
r mod p**k, i.e. p**(e-k) solutions.  Certified infinite branches
contribute through their closed-form continuations.  Composite moduli
are handled by factoring and recombining with the Chinese remainder
theorem.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .polynomial import Polynomial
from .primes import PrimePower, factorize
from .trunk import (
    STATUS_CYCLE,
    STATUS_HENSEL,
    Trunk,
    build_trunk,
    hensel_lift,
)

#: Default ceiling on the number of explicitly listed solutions.
DEFAULT_BUDGET = 10**7


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

    count is the exact number of solutions in [0, p**e); each ball
    contributes p**(e - k) of them.
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


def _require_depth(trunk: Trunk, e1: int) -> None:
    short = [n for n in trunk.undetermined_nodes() if n.phi < e1]
    if short:
        # open vertices sit at built_depth and gain thickness >= 1 per level
        node = min(short, key=lambda n: n.phi)
        raise InsufficientDepthError(
            f"insufficient depth: an undetermined branch at level {node.k}"
            f" only covers levels up to {node.phi + trunk.t0}; rebuild the"
            f" trunk with max_level >= {trunk.built_depth + e1 - node.phi}")


def _cycle_continuation(node, p: int, e1: int) -> tuple[int, int]:
    # Along a cycle every level adds thickness t, one vertex per level,
    # with the base-p digits repeating with the certified period.
    steps = -((e1 - node.phi) // -node.t)  # ceil division
    r = node.r
    digits = node.cycle_digits
    m = len(digits)
    pq = p ** node.k
    for q in range(steps):
        r += digits[q % m] * pq
        pq *= p
    return r, node.k + steps


def _window_balls(trunk: Trunk, e1: int) -> list[SolutionBall]:
    """Trunk vertices whose level window contains e1, as balls (r, k).

    Certified infinite branches are continued lazily: a simple-root
    branch by lifting, a cycle branch by repeating its digit pattern.
    """
    p = trunk.p
    balls = []
    for node in trunk.iter_nodes():
        if node.phi - node.t < e1 <= node.phi:
            balls.append(SolutionBall(node.r, node.k))
        elif e1 > node.phi:
            if node.status == STATUS_HENSEL:
                j = e1 - node.phi
                y = hensel_lift(node.successor, node.hensel_root, p, j)
                balls.append(SolutionBall(node.r + y * p**node.k, node.k + j))
            elif node.status == STATUS_CYCLE:
                r, k = _cycle_continuation(node, p, e1)
                balls.append(SolutionBall(r, k))
    balls.sort(key=lambda b: (b.k, b.r))
    return balls


def is_solution(trunk: Trunk, x: int, e: int) -> bool:
    """Decide P(x) = 0 (mod p**e) from the trunk alone."""
    if e < 0:
        raise ValueError("e must be non-negative")
    e1 = e - trunk.t0
    if e1 <= 0:
        return True
    _require_depth(trunk, e1)
    p = trunk.p
    return any(x % p**ball.k == ball.r for ball in _window_balls(trunk, e1))


def count_solutions(trunk: Trunk, e: int) -> int:
    """The number N_e of solutions modulo p**e, without enumerating.

    N_0 = 1 by convention.  This never materializes continuations, so it
    stays cheap even for very large e.
    """
    if e < 0:
        raise ValueError("e must be non-negative")
    if e == 0:
        return 1
    p, t0 = trunk.p, trunk.t0
    if e <= t0:
        return p ** e
    e1 = e - t0
    _require_depth(trunk, e1)
    total = 0
    for node in trunk.iter_nodes():
        if node.phi - node.t < e1 <= node.phi:
            total += p ** (e1 - node.k)
        elif e1 > node.phi:
            if node.status == STATUS_HENSEL:
                # continuation vertex at level k + (e1 - phi), thickness 1
                total += p ** (node.phi - node.k)
            elif node.status == STATUS_CYCLE:
                steps = -((e1 - node.phi) // -node.t)
                total += p ** (e1 - node.k - steps)
    return p**t0 * total


def ball_decomposition(trunk: Trunk, e: int) -> SolutionSet:
    """The solutions modulo p**e as pairwise disjoint balls."""
    if e < 1:
        raise ValueError("e must be positive")
    p, t0 = trunk.p, trunk.t0
    if e <= t0:
        # p**t0 * P0 vanishes automatically modulo p**e: everything solves
        return SolutionSet(p=p, e=e, balls=[SolutionBall(0, 0)], count=p**e)
    e1 = e - t0
    _require_depth(trunk, e1)
    balls = _window_balls(trunk, e1)
    count = sum(p ** (e - ball.k) for ball in balls)
    return SolutionSet(p=p, e=e, balls=balls, count=count)


def enumerate_solutions(trunk: Trunk, e: int, *, budget: int = DEFAULT_BUDGET) -> list[int]:
    """Explicit sorted solutions in [0, p**e), reconstructed from balls."""
    decomposition = ball_decomposition(trunk, e)
    if decomposition.count > budget:
        raise EnumerationBudgetError(
            f"enumeration too large: {decomposition.count} solutions"
            f" exceed the budget {budget}")
    p = trunk.p
    pe = p ** e
    out: list[int] = []
    for ball in decomposition.balls:
        out.extend(range(ball.r, pe, p ** ball.k))
    out.sort()
    return out


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
              budget: int = DEFAULT_BUDGET, max_prime: int | None = None,
              trunk_builder=build_trunk) -> CrtSolution:
    """Solve P(x) = 0 (mod n) for composite n.

    Factors n, solves each prime-power congruence through the trunk
    pipeline, and recombines residue tuples with modular inverses.  The
    per-factor ball structure is always returned; the explicit list is
    subject to the budget (and skipped entirely with count_only).
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    kwargs = {} if max_prime is None else {"max_prime": max_prime}
    factors: list[tuple[PrimePower, SolutionSet]] = []
    trunks: list[Trunk] = []
    count = 1
    for p, e in factorize(n):
        trunk = trunk_builder(P, p, e, **kwargs)
        decomposition = ball_decomposition(trunk, e)
        factors.append((PrimePower(p, e), decomposition))
        trunks.append(trunk)
        count *= decomposition.count

    if count_only:
        return CrtSolution(n=n, count=count, solutions=None, factors=factors)
    if count == 0:
        return CrtSolution(n=n, count=0, solutions=[], factors=factors)
    if count > budget:
        raise EnumerationBudgetError(
            f"enumeration too large: {count} solutions exceed the budget {budget}")

    moduli = [pp.modulus for pp, _ in factors]
    basis = []
    for m in moduli:
        rest = n // m
        basis.append(rest * pow(rest, -1, m) % n)
    per_factor = [enumerate_solutions(trunk, pp.e, budget=budget)
                  for trunk, (pp, _) in zip(trunks, factors)]
    solutions = sorted(
        sum(r * b for r, b in zip(combo, basis)) % n
        for combo in itertools.product(*per_factor))
    return CrtSolution(n=n, count=count, solutions=solutions, factors=factors)
