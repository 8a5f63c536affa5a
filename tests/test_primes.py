import math
import random
import time

import pytest

from padic_trunk import factorize, is_prime


def test_is_prime_small():
    primes_below_100 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                        47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97]
    assert [n for n in range(100) if is_prime(n)] == primes_below_100
    assert not is_prime(0) and not is_prime(1) and not is_prime(-7)


def test_is_prime_strong_pseudoprimes_and_carmichael():
    # strong pseudoprimes to small bases, and Carmichael numbers
    for n in (3215031751, 561, 1105, 1729, 2465, 2821, 6601):
        assert not is_prime(n)
    assert is_prime(2**61 - 1)
    assert is_prime(10**18 + 9)



def test_is_prime_at_the_deterministic_limit():
    # psi_13 = 1287836182261 * 2575672364521 is a strong pseudoprime to the
    # thirteen fixed bases 2..41: only the extra bases seeded from n reject it
    assert not is_prime(3317044064679887385961981)
    assert is_prime(2**89 - 1)


#: psi_k, the least strong pseudoprime to each of the first k prime bases,
#: k = 1..13 (OEIS A014233)
PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
       341550071728321, 341550071728321, 3825123056546413051,
       3825123056546413051, 3825123056546413051, 318665857834031151167461,
       3317044064679887385961981)
BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _strong_probable_prime(n, a):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2**i, n) == n - 1 for i in range(1, s))


@pytest.mark.parametrize("k", range(1, 14))
def test_is_prime_rejects_each_least_strong_pseudoprime(k):
    # psi_k fools the first k bases, so only n < psi_k may be decided by
    # them: each psi_k sits at a tier boundary of is_prime's table
    n = PSI[k - 1]
    assert all(_strong_probable_prime(n, a) for a in BASES[:k])
    assert not is_prime(n)


def test_is_prime_matches_trial_division_and_all_thirteen_bases():
    assert [n for n in range(5000) if is_prime(n)] == \
        [n for n in range(5000) if n > 1 and all(n % q for q in range(2, math.isqrt(n) + 1))]
    # composites below psi_13 pass all thirteen bases only if prime
    rng = random.Random(27)
    for n in [rng.randrange(5000, 10**20) for _ in range(2000)] + [q - 2 for q in PSI] + list(PSI[:-1]):
        assert is_prime(n) == all(n == a or _strong_probable_prime(n, a) for a in BASES)


def test_factorize_trial_division():
    assert factorize(2) == [(2, 1)]
    assert factorize(360) == [(2, 3), (3, 2), (5, 1)]
    assert factorize(9973) == [(9973, 1)]
    assert factorize(2310) == [(2, 1), (3, 1), (5, 1), (7, 1), (11, 1)]
    with pytest.raises(ValueError):
        factorize(1)


def test_factorize_strips_a_large_exponent_by_valuation():
    # one division per unit of exponent took about 10 s for each
    for n, expected in ((2**200000, [(2, 200000)]), (3 * 7**100000, [(3, 1), (7, 100000)])):
        start = time.perf_counter()
        assert factorize(n) == expected
        assert time.perf_counter() - start < 2
    assert factorize(2**5 * 3**7 * 1009**33) == [(2, 5), (3, 7), (1009, 33)]


def test_factorize_rho_fallback():
    # both factors above the trial-division bound
    n = 1000003 * 1000033
    assert factorize(n) == [(1000003, 1), (1000033, 1)]
    assert factorize(2**4 * 17 * 1000003**2) == [(2, 4), (17, 1), (1000003, 2)]


def test_factorize_random_roundtrip():
    rng = random.Random(83)
    for _ in range(50):
        n = rng.randint(2, 10**9)
        factors = factorize(n)
        product = 1
        for p, e in factors:
            assert is_prime(p)
            product *= p**e
        assert product == n
        assert factors == sorted(factors)
