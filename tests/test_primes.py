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
    # 1287836182261 * 2575672364521 is a strong pseudoprime to all twelve
    # fixed bases: only the extra bases seeded from n reject it
    assert not is_prime(3317044064679887385961981)
    assert is_prime(2**89 - 1)

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
