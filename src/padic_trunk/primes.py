"""Primality testing and factorization for composite-modulus solving."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# The first k primes as Miller-Rabin witnesses decide every n below psi_k,
# the least strong pseudoprime to all of them (OEIS A014233; Jaeschke, Math.
# Comp. 61, 1993; Sorenson and Webster, Math. Comp. 86, 2017): (psi_k, bases)
# for the k that raise the bound.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_TIERS = tuple((psi, _MR_BASES[:k]) for psi, k in (
    (2_047, 1), (1_373_653, 2), (25_326_001, 3), (3_215_031_751, 4),
    (2_152_302_898_747, 5), (3_474_749_660_383, 6), (341_550_071_728_321, 7),
    (3_825_123_056_546_413_051, 9), (318_665_857_834_031_151_167_461, 12),
    (3_317_044_064_679_887_385_961_981, 13)))

# factorize's effort: trial division up to this bound, then this many rho steps per seed.
_TRIAL_BOUND = 10**6
_RHO_BUDGET = 200_000


class FactorizationError(RuntimeError):
    """A composite resisted the configured factoring effort."""


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test.

    Deterministic below psi_13 ~ 3.3e24 with the fewest of the first 13
    prime bases that decide n's range: 2 bases below 1,373,653, 7 below
    3.4e14, 9 below 3.8e18, 12 below 3.2e23.  Larger inputs additionally
    get 20 witnesses from a PRNG seeded with n, which keeps the test
    reproducible while making the error probability < 4**-20.
    """
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for psi, bases in _MR_TIERS:
        if n < psi:
            break
    else:
        rng = random.Random(n)
        bases = _MR_BASES + tuple(rng.randrange(2, n - 1) for _ in range(20))
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int, budget: int) -> int | None:
    """Floyd-cycle rho on an odd composite n: a divisor 1 < d < n, None if budget runs out."""
    for c in range(1, 20):
        x = y = 2
        d = 1
        steps = 0
        while d == 1 and steps < budget:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
            steps += 1
        if 1 < d < n:
            return d
    return None


def _strip(m: int, q: int) -> tuple[int, int]:
    """(m / q**v, v) for v = v_q(m).

    Divides by q, q**2, q**4, ... while that divides, then by the same
    powers back down: O(log v) divisions for v = v_q(m), not v of them.
    """
    powers, v = [q], 0
    quotient, rest = divmod(m, q)
    while not rest:
        m, v = quotient, v + (1 << (len(powers) - 1))
        powers.append(powers[-1] * powers[-1])
        quotient, rest = divmod(m, powers[-1])
    for i in reversed(range(len(powers) - 1)):
        quotient, rest = divmod(m, powers[i])
        if not rest:
            m, v = quotient, v + (1 << i)
    return m, v


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n as a sorted list of (prime, exponent) pairs.

    Trial division up to _TRIAL_BOUND, then rho with a bounded iteration
    budget for whatever survives; raises FactorizationError beyond that.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    factors: dict[int, int] = {}
    m = n
    for q in (2, 3):
        if m % q == 0:
            m, factors[q] = _strip(m, q)
    d = 5
    while d <= _TRIAL_BOUND and d * d <= m:
        for q in (d, d + 2):
            if m % q == 0:
                m, factors[q] = _strip(m, q)
        d += 6
    if m > 1:
        stack = [m]
        while stack:
            v = stack.pop()
            if is_prime(v):
                factors[v] = factors.get(v, 0) + 1
                continue
            g = _pollard_rho(v, _RHO_BUDGET)
            if g is None:
                raise FactorizationError(f"could not factor {v} within the configured effort")
            stack.append(g)
            stack.append(v // g)
    return sorted(factors.items())


@dataclass(frozen=True)
class PrimePower:
    """A modulus p**e whose base is certified prime at construction."""

    p: int
    e: int

    def __post_init__(self) -> None:
        if self.p < 2 or not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.e < 0:
            raise ValueError("exponent must be non-negative")

    @property
    def modulus(self) -> int:
        return self.p ** self.e
