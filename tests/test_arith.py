import math
import random

import pytest

from ordstat import arith
from ordstat.arith import (Factorization, OverflowError64, factorize, gcd,
                           is_prime, jacobi, lcm, pow_mod, primes_in_range,
                           sieve_primes)


def naive_pow_mod(base, exp, modulus):
    r = 1 % modulus
    for _ in range(exp):
        r = r * base % modulus
    return r


def simple_sieve_flags(limit):
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            for m in range(p * p, limit + 1, p):
                flags[m] = 0
    return flags


def test_pow_mod_examples():
    assert pow_mod(5, 0, 7) == 1
    assert pow_mod(2, 10, 1000) == 24
    assert naive_pow_mod(2, 10, 1000) == 24
    for x in (0, 1, 5, 12345):
        assert pow_mod(x, 1, 1) == 0


def test_pow_mod_rejects_zero_modulus():
    with pytest.raises(ValueError):
        pow_mod(2, 3, 0)


def test_pow_mod_matches_naive_loop():
    rng = random.Random(20140901)
    for _ in range(10_000):
        b = rng.randrange(0, 10**6)
        e = rng.randrange(0, 10**3)
        m = rng.randrange(1, 10**6)
        assert pow_mod(b, e, m) == naive_pow_mod(b, e, m)


def test_is_prime_examples():
    assert not is_prime(0)
    assert not is_prime(1)
    assert is_prime(2)
    # 2^61 - 1 is a Mersenne prime; cross-checked below at smaller scale
    assert is_prime(2**61 - 1)


def test_is_prime_agrees_with_sieve_to_1e6():
    flags = simple_sieve_flags(10**6)
    for n in range(10**6 + 1):
        assert is_prime(n) == bool(flags[n]), n


def test_is_prime_agrees_with_trial_division():
    def trial(n):
        if n < 2:
            return False
        f = 2
        while f * f <= n:
            if n % f == 0:
                return False
            f += 1
        return True

    for n in range(2, 3000):
        assert is_prime(n) == trial(n)
    # worst known strong-pseudoprime composites for small witness sets
    for n in (3215031751, 3825123056546413051, 341550071728321):
        assert not is_prime(n)


def test_factorize_examples():
    assert factorize(1).factors == ()
    assert factorize(360).factors == ((2, 3), (3, 2), (5, 1))
    for p in (2, 97, 99991):
        assert factorize(p).factors == ((p, 1),)
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_reassembles_to_1e5():
    flags = simple_sieve_flags(10**5)
    for n in range(1, 10**5 + 1):
        f = factorize(n)
        assert f.value == n
        assert math.prod(p**a for p, a in f.factors) == n
        for p, _ in f.factors:
            assert flags[p], (n, p)


def test_factorize_hard_64bit_inputs():
    cases = [
        2**62,
        (2**31 - 1) ** 2,
        (2**31 - 1) * (2**31 - 19),   # two large primes, rho territory
        10**18 + 9,                   # prime
        2305843009213693951,          # 2^61 - 1
        614889782588491410,           # primorial of 47
        2**64 - 59,                   # largest prime below 2^64
    ]
    for n in cases:
        f = factorize(n)
        assert math.prod(p**a for p, a in f.factors) == n
        assert all(is_prime(p) for p, _ in f.factors)
        assert f == factorize(n)  # deterministic


def test_factorize_retries_rho_with_the_next_increment(monkeypatch):
    n = 280997 * 2403361  # above the trial square, so it goes to rho
    assert arith._brent_rho(n, 1) is None
    rounds = []
    real = arith._brent_rho

    def recording(m, c):
        rounds.append((m, c, real(m, c)))
        return rounds[-1][2]

    monkeypatch.setattr(arith, "_brent_rho", recording)
    assert factorize(n).factors == ((280997, 1), (2403361, 1))
    assert rounds == [(n, 1, None), (n, 2, 280997)]


def trial_factor(n, primes):
    """Factor list of n by trial division over primes, which must run past
    the square root of every cofactor met."""
    out = {}
    for p in primes:
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return tuple(sorted(out.items()))


def test_factorize_matches_trial_division_across_trial_blocks():
    flags = simple_sieve_flags(200_000)
    oracle_primes = [n for n in range(2, 200_001) if flags[n]]
    trial = [p for p in oracle_primes if p <= arith._TRIAL_BOUND]
    block = arith._TRIAL_BLOCK
    cases = [99991**2, 99991 * 99989, 100003 * 100019, 2 * 99991 * 100003]
    # the last prime of one block and the first of the next, alone, squared,
    # together, and beside a prime cofactor below and above 10^10
    for i in range(block, len(trial), block):
        last, first = trial[i - 1], trial[i]
        cases += [last * first, last**2, first**2, last**2 * first, 8 * last * first,
                  3 * first * 100003, first * 100003 * 100019]
    for n in cases:
        assert factorize(n).factors == trial_factor(n, oracle_primes), n


def test_factorization_validates():
    with pytest.raises(ValueError):
        Factorization(12, ((2, 1), (3, 1)))  # product mismatch
    with pytest.raises(ValueError):
        Factorization(12, ((3, 1), (2, 2)))  # not ascending
    assert Factorization(12, ((2, 2), (3, 1))).primes() == (2, 3)


def test_sieve_examples():
    assert sieve_primes(10) == [2, 3, 5, 7]
    assert sieve_primes(2) == [2]
    assert len(sieve_primes(10**6)) == 78498


def test_sieve_matches_simple_oracle():
    flags = simple_sieve_flags(30_000)
    expected = [n for n in range(2, 30_001) if flags[n]]
    assert sieve_primes(30_000) == expected


def test_primes_in_range_segments():
    whole = sieve_primes(10_000)
    pieces = []
    for lo in range(0, 10_001, 977):
        pieces.extend(primes_in_range(lo, min(lo + 977, 10_001)))
    assert pieces == whole
    assert primes_in_range(100, 100) == []
    assert primes_in_range(89, 90) == [89]
    # ranges starting below 2, ending at hi <= 3, and across the 2^16 segment edge
    edge = 1 << 16
    for lo, hi in [(-5, 30), (0, 2), (1, 3), (-1, 3), (2, 3), (0, 1), (3, 3),
                   (edge - 200, edge + 200), (2, edge + 300), (edge - 1, 2 * edge + 7)]:
        assert primes_in_range(lo, hi) == [n for n in range(lo, hi) if is_prime(n)], (lo, hi)


def test_gcd_lcm_examples():
    assert gcd(12, 18) == 6
    assert lcm(4, 6) == 12
    for a in (0, 1, 7, 100):
        assert gcd(a, 0) == a
    assert gcd(0, 0) == 0
    assert lcm(0, 5) == 0


def test_lcm_overflow_is_signaled():
    with pytest.raises(OverflowError64):
        lcm(2**40, 2**40 + 1)
    # OverflowError64 is an OverflowError for callers that catch broadly
    assert issubclass(OverflowError64, OverflowError)


def test_gcd_lcm_product_identity():
    rng = random.Random(7)
    for _ in range(2000):
        a = rng.randrange(1, 10**6)
        b = rng.randrange(1, 10**6)
        assert gcd(a, b) * lcm(a, b) == a * b


def test_jacobi_is_eulers_criterion():
    # at an odd prime n, (a | n) is a^((n-1)/2) mod n read as 1, -1 or 0:
    # the order descent puts it in place of its first pow()
    for n in primes_in_range(3, 2 * 10**4):
        read = {1: 1, n - 1: -1, 0: 0}
        for a in (*range(2, 61), n - 1, n + 1, 3 * n, 2**61 - 1, 10**18 + 9):
            assert jacobi(a, n) == read[pow(a, (n - 1) // 2, n)], (a, n)
    # at an odd composite n it is the product of the symbols at n's primes
    for n in range(1, 400, 2):
        factors = factorize(n).factors
        for a in range(-20, 60):
            assert jacobi(a, n) == math.prod(jacobi(a, p)**k for p, k in factors), (a, n)
    for n in (-3, 0, 2, 10):
        with pytest.raises(ValueError):
            jacobi(3, n)
