import math
import random

import pytest

from ordstat import arith
from ordstat.arith import Factorization, factorize, is_prime, jacobi, primes_in_range


def simple_sieve_flags(limit):
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            for m in range(p * p, limit + 1, p):
                flags[m] = 0
    return flags


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
    # 280996 = 4 * 70249 and 2403360 = 2^5 * 3^2 * 5 * 1669: the p-1 stage
    # hits neither prime, so its gcd is 1 and rho splits n
    assert math.gcd(pow(2, arith._pm1_exponent(), n) - 1, n) == 1
    assert arith._brent_rho(n, 1) is None
    rounds = []
    real = arith._brent_rho

    def recording(m, c):
        rounds.append((m, c, real(m, c)))
        return rounds[-1][2]

    monkeypatch.setattr(arith, "_brent_rho", recording)
    assert factorize(n).factors == ((280997, 1), (2403361, 1))
    assert rounds == [(n, 1, None), (n, 2, 280997)]


def one_step_rho(n, c):
    """Brent rho reducing its product at every step, as _brent_rho did
    before it took four steps per loop turn: the same rounds, the same
    gcds, so the same factor or None."""
    y, r, q, g, m = 2, 1, 1, 1, 128
    x = ys = y
    while g == 1:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(m, r - k)):
                y = (y * y + c) % n
                q = q * (x - y) % n
            g = math.gcd(q, n)
            k += m
        r <<= 1
    if g == n:
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = math.gcd(x - ys, n)
    return g if g != n else None


def test_brent_rho_matches_the_one_step_loop():
    # composites with factors from 3 to 30 bits, among them the c = 1 miss
    # of 280997 * 2403361, and rounds that end in the backtrack
    rng = random.Random(5)
    cases = [280997 * 2403361, 3 * 5, 25, 7 * 7 * 7, 1000003 * 1000033]
    for bits in (2, 5, 11, 17, 24, 30):
        for _ in range(4):
            while not is_prime(p := rng.getrandbits(bits) | 1 << (bits - 1) | 1):
                pass
            cases.append(p * 4294967311)
    for n in cases:
        for c in (1, 2, 3):
            assert arith._brent_rho(n, c) == one_step_rho(n, c), (n, c)


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


def _pm1_hits(p):
    """True when the p-1 stage's 2^E is 1 mod the prime p, which it is when
    p - 1 is _PM1_BOUND-powersmooth: gcd(2^E - 1, n) is the product of the
    primes of a squarefree n that it hits."""
    return pow(2, arith._pm1_exponent(), p) == 1


def _prime_with(rng, hit, bits):
    """A prime of the given bits that the p-1 stage hits or not; a hit is
    drawn as 1 + 2 * (primes below _PM1_BOUND)."""
    small = primes_in_range(3, arith._PM1_BOUND)
    while True:
        if hit:
            p = 2
            while p.bit_length() < bits:
                p *= rng.choice(small)
            p += 1
        else:
            p = rng.getrandbits(bits) | 1 << (bits - 1) | 1
        if p.bit_length() == bits and is_prime(p) and _pm1_hits(p) == hit:
            return p


def test_pm1_exponent_is_the_product_of_the_largest_prime_powers():
    want = 1
    for p in primes_in_range(2, arith._PM1_BOUND + 1):
        power = p
        while power * p <= arith._PM1_BOUND:
            power *= p
        want *= power
    assert arith._pm1_exponent() == want


def test_factorize_semiprimes_of_each_pm1_shape(monkeypatch):
    rng = random.Random(20260417)
    rho_inputs = []
    real = arith._brent_rho

    def recording(n, c):
        rho_inputs.append(n)
        return real(n, c)

    monkeypatch.setattr(arith, "_brent_rho", recording)
    # (p hit, q hit): one hit splits n in the p-1 stage alone; both give
    # gcd n and neither gcd 1, and rho splits n
    for hits in ((True, False), (True, True), (False, False)):
        for bits in ((30, 30), (24, 40), (32, 32)):
            p, q = _prime_with(rng, hits[0], bits[0]), _prime_with(rng, hits[1], bits[1])
            rho_inputs.clear()
            assert factorize(p * q).factors == tuple(sorted({p: 1, q: 1}.items())), (p, q)
            assert (p * q in rho_inputs) == (hits[0] == hits[1]), (p, q, hits)
    # a prime square above the trial square, alone and times the largest
    # power of 2 that keeps it below 2^64
    for hit in (True, False):
        for bits in (20, 31, 32):
            p, k = _prime_with(rng, hit, bits), 64 - 2 * bits
            assert factorize(p * p).factors == ((p, 2),), p
            assert factorize(2**k * p * p).factors == ((2, k), (p, 2))[not k:], p


def test_factorize_just_below_2_to_the_64():
    rng = random.Random(7)
    for hits in ((True, False), (False, True), (True, True), (False, False)):
        p = _prime_with(rng, hits[0], 32)
        q = arith.U64_MAX // p | 1
        while not (is_prime(q) and _pm1_hits(q) == hits[1]):
            q -= 2
        assert arith.U64_MAX - p * q < 2**40
        assert factorize(p * q).factors == tuple(sorted({p: 1, q: 1}.items())), (p, q)
    # 3 * 5 * 17 * 257 * 641 * 65537 * 6700417, one prime above the list
    primes = primes_in_range(2, 2**16 + 2)
    assert factorize(arith.U64_MAX).factors == trial_factor(arith.U64_MAX, primes)
    assert len(factorize(arith.U64_MAX).factors) == 7


def test_factorization_validates():
    with pytest.raises(ValueError):
        Factorization(12, ((2, 1), (3, 1)))  # product mismatch
    with pytest.raises(ValueError):
        Factorization(12, ((3, 1), (2, 2)))  # not ascending
    assert Factorization(12, ((2, 2), (3, 1))).primes() == (2, 3)


def test_sieve_examples():
    assert primes_in_range(2, 11) == [2, 3, 5, 7]
    assert primes_in_range(2, 3) == [2]
    assert len(primes_in_range(2, 10**6 + 1)) == 78498


def test_sieve_matches_simple_oracle():
    flags = simple_sieve_flags(30_000)
    expected = [n for n in range(2, 30_001) if flags[n]]
    assert primes_in_range(2, 30_001) == expected


def test_primes_in_range_segments():
    whole = primes_in_range(2, 10_001)
    pieces = []
    for lo in range(0, 10_001, 977):
        pieces.extend(primes_in_range(lo, min(lo + 977, 10_001)))
    assert pieces == whole
    assert primes_in_range(100, 100) == []
    assert primes_in_range(89, 90) == [89]
    # ranges starting below 2, ending at hi <= 3, across the edge of a
    # segment (2^17 numbers from lo | 1), and of odd or even width
    edge = 1 << 17
    for lo, hi in [(-5, 30), (0, 2), (1, 3), (-1, 3), (2, 3), (0, 1), (3, 3), (3, 4), (9, 10),
                   (2, edge + 300), (edge - 1, 2 * edge + 7), (1000, edge + 1200),
                   (999, edge + 1000), (2**32 + 2**18, 2**32 + 2**18 + 501)]:
        assert primes_in_range(lo, hi) == [n for n in range(lo, hi) if is_prime(n)], (lo, hi)


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
