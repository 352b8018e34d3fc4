import math
import random

import pytest

from ordstat import orders as orders_mod
from ordstat.arith import Factorization, factorize, is_prime, jacobi, lcm, primes_in_range
from ordstat.orders import (OrderKernel, OrderProfile, _prime_order, carmichael_lambda,
                            coprime_order, coprime_part, multiplicative_order, omega,
                            order_profile, smooth_part, squarefree_core)


def brute_order(e, m):
    """Least k with e^k = 1 mod m, by stepping."""
    target = 1 % m
    x = e % m
    k = 1
    while x != target:
        x = x * e % m
        k += 1
    return k


def max_element_order(n):
    """Largest multiplicative order mod n, by enumerating every unit."""
    best = 1
    for a in range(1, n):
        if math.gcd(a, n) == 1:
            best = max(best, brute_order(a, n))
    return best if n > 1 else 1


def test_carmichael_prime_power_rule():
    assert carmichael_lambda(factorize(2)) == 1
    assert carmichael_lambda(factorize(4)) == 2
    assert carmichael_lambda(factorize(8)) == 2
    assert carmichael_lambda(factorize(16)) == 4
    assert carmichael_lambda(factorize(27)) == 18
    assert carmichael_lambda(factorize(49)) == 42


def test_carmichael_examples():
    assert carmichael_lambda(factorize(1)) == 1
    assert max_element_order(15) == 4
    assert carmichael_lambda(factorize(15)) == 4
    assert carmichael_lambda(factorize(209)) == 90


def test_carmichael_matches_enumerated_exponent_small():
    for n in range(1, 300):
        assert carmichael_lambda(factorize(n)) == max_element_order(n), n


def test_lambda_of_lcm_identity():
    rng = random.Random(12)
    for _ in range(10_000):
        a = rng.randrange(1, 10**4)
        b = rng.randrange(1, 10**4)
        lhs = carmichael_lambda(factorize(lcm(a, b)))
        rhs = lcm(carmichael_lambda(factorize(a)), carmichael_lambda(factorize(b)))
        assert lhs == rhs, (a, b)


def test_coprime_part_examples():
    assert coprime_part(12, 2) == 3
    assert coprime_part(45, 10) == 9
    for n in (1, 7, 121, 3600):
        e = 7 if n % 7 else 11
        if math.gcd(n, e) == 1:
            assert coprime_part(n, e) == n


def test_coprime_part_is_idempotent():
    for n in range(1, 2000):
        for e in (2, 3, 10):
            d = coprime_part(n, e)
            assert coprime_part(d, e) == d
            assert n % d == 0
            assert math.gcd(d, e) == 1


def test_multiplicative_order_examples():
    assert multiplicative_order(2, 7) == 3
    assert multiplicative_order(3, 10) == 4
    for e in (2, 3, 10, 97):
        assert multiplicative_order(e, 1) == 1
    with pytest.raises(ValueError):
        multiplicative_order(2, 12)


def test_order_matches_bruteforce():
    for n in range(1, 3000):
        for e in (-3, 0, 1, 2, 3, 5, 6, 10, 12):
            m = coprime_part(n, e)
            k = brute_order(e, m)
            assert coprime_order(e, n) == k, (e, n)
            if math.gcd(e, n) == 1:
                assert multiplicative_order(e, n) == k, (e, n)
            else:
                with pytest.raises(ValueError):
                    multiplicative_order(e, n)


def test_coprime_order_takes_the_coprime_part_before_factoring():
    # n is past 2^64, but its part coprime to 2 is 3
    assert coprime_order(2, 3 * 2**70) == 2
    assert coprime_order(3, 3**50 * 7) == 6
    with pytest.raises(ValueError):
        order_profile(2, 3 * 2**70)


def _random_prime(rng, bits, mod4=None):
    while True:
        p = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_prime(p) and (mod4 is None or p % 4 == mod4):
            return p


def _certificate_cases(rng):
    """(e, m, factors of m): 50 each of 2^a*p*q < 2^64, 60-bit Blum
    integers, p^k with p < 2^20 and k >= 2, and 2^k."""
    for _ in range(50):
        a = rng.randrange(0, 8)
        p, q = _random_prime(rng, 24), _random_prime(rng, 63 - a - 24)
        m = 2**a * p * q
        fac = ((2, a), (p, 1), (q, 1)) if a else ((p, 1), (q, 1))
        yield rng.choice((2, 3, 6, 10, rng.randrange(2, m))), m, fac
    for _ in range(50):
        p, q = sorted((_random_prime(rng, 30, mod4=3), _random_prime(rng, 30, mod4=3)))
        m = p * q
        fac = ((p, 1), (q, 1)) if p != q else ((p, 2),)
        yield rng.choice((2, 3, rng.randrange(2, m))), m, fac
    for _ in range(50):
        p = _random_prime(rng, rng.randrange(2, 21))
        k = rng.randrange(2, max(3, 64 // p.bit_length() + 1))
        yield rng.choice((2, 3, 10, rng.randrange(2, p**k))), p**k, ((p, k),)
    for _ in range(50):
        k = rng.randrange(1, 64)
        yield rng.randrange(3, 2**64, 2), 2**k, ((2, k),)


def test_orders_pass_the_order_certificate():
    for e, m, fac in _certificate_cases(random.Random(20260418)):
        assert m < 2**64
        mc = coprime_part(m, e)
        k = coprime_order(e, m)
        assert pow(e, k, mc) == 1 % mc, (e, m)
        for r, _ in factorize(k).factors:
            assert pow(e, k // r, mc) != 1 % mc, (e, m, r)
        prof = order_profile(e, m)
        assert (prof.n_coprime, prof.ord_star) == (mc, k), (e, m)
        assert prof.lambda_n == carmichael_lambda(Factorization(m, fac))
        assert (prof.index is not None) == (len(fac) == 1 and fac[0][1] == 1 and e % m != 0)


def test_coprime_order_examples():
    assert coprime_order(2, 12) == 2
    assert coprime_order(10, 45) == 1
    for k in range(1, 7):
        assert coprime_order(2, 2**k) == 1


def test_coprime_order_divides_lambda():
    for n in range(1, 1000):
        lam = carmichael_lambda(factorize(n))
        for e in (2, 3, 10):
            assert lam % coprime_order(e, n) == 0, (e, n)


def test_core_examples():
    assert squarefree_core(12) == 6
    assert squarefree_core(1) == 1
    for p in (2, 13, 997):
        assert squarefree_core(p) == p


def test_core_and_omega_properties():
    for n in range(1, 3000):
        c = squarefree_core(n)
        assert n % c == 0
        assert squarefree_core(c) == c
        assert omega(n) == len(factorize(c).factors)
    assert omega(12) == 2
    assert omega(1) == 0
    assert omega(30) == 3


def test_smooth_part():
    assert smooth_part(90, lambda p: p in (2, 3)) == 18
    assert smooth_part(97, lambda p: p in (2, 3)) == 1
    for n in (1, 12, 97, 3600):
        assert smooth_part(n, lambda p: True) == n
        assert smooth_part(n, lambda p: False) == 1


def test_order_profile_examples():
    prof = order_profile(2, 7)
    assert prof == OrderProfile(n=7, e=2, n_coprime=7, lambda_n=6, ord_star=3, index=2)
    # lambda(12) = lcm(lambda(4), lambda(3)) = 2: units mod 12 all square to 1
    prof = order_profile(2, 12)
    assert (prof.n_coprime, prof.lambda_n, prof.ord_star, prof.index) == (3, 2, 2, None)
    assert max_element_order(12) == 2
    prof = order_profile(5, 1)
    assert (prof.n_coprime, prof.lambda_n, prof.ord_star, prof.index) == (1, 1, 1, None)
    # a prime dividing e has no index
    prof = order_profile(10, 5)
    assert (prof.n_coprime, prof.lambda_n, prof.ord_star, prof.index) == (1, 4, 1, None)


def test_order_profile_invariants():
    for n in range(1, 500):
        for e in (2, 3, 10):
            prof = order_profile(e, n)
            assert n % prof.n_coprime == 0
            assert math.gcd(prof.n_coprime, e) == 1
            lam_coprime = carmichael_lambda(factorize(prof.n_coprime))
            assert lam_coprime % prof.ord_star == 0
            assert pow(e, prof.ord_star, prof.n_coprime) == 1 % prof.n_coprime
            for q, _ in factorize(prof.ord_star).factors:
                assert pow(e, prof.ord_star // q, prof.n_coprime) != 1 % prof.n_coprime
            if prof.index is not None:
                assert prof.index * prof.ord_star == n - 1


def _largest_prime_factors(limit):
    """lpf[m] for 1 <= m <= limit (lpf[1] = 1), by a sieve of its own: each
    prime p overwrites its multiples in ascending order, the largest last."""
    lpf = list(range(limit + 1))
    for p in range(2, limit // 2 + 1):
        if lpf[p] == p:
            lpf[2 * p :: p] = [p] * (limit // p - 1)
    return lpf


def _prime_powers_by_table(m, lpf):
    """(p, p^a) for each prime power exactly dividing m, largest p first."""
    out = []
    while m > 1:
        p, q = lpf[m], 1
        while m % p == 0:
            m //= p
            q *= p
        out.append((p, q))
    return out


def _e_free(n, e):
    """The largest divisor of n coprime to e."""
    while (g := math.gcd(n, e)) > 1:
        n //= g
    return n


def test_order_kernel_passes_the_order_certificate():
    limit = 2 * 10**5
    lpf = _largest_prime_factors(limit)
    kernel = OrderKernel(limit, 2)
    for n in range(1, limit + 1):
        lam = 1  # lambda(p^a) = (p-1)p^(a-1), but lambda(2^a) = 2^(a-2) for a >= 3
        for p, q in _prime_powers_by_table(n, lpf):
            lam = math.lcm(lam, (q // 2 if q <= 4 else q // 4) if p == 2 else q - q // p)
        assert kernel.lam(n) == lam, n
        assert kernel.lpf(n) == lpf[n], n
    powers = [b**a for b in (2, 3) for a in range(1, limit.bit_length()) if b**a <= limit]
    for e in (2, 3, 6, 10, 12):
        certified = {}  # e-free part n' -> its certified order
        # the first kernel meets every prime power before any multiple of it,
        # the second meets the powers of 2 and 3 largest first with nothing kept
        for kernel, order in ((OrderKernel(limit, e), range(1, limit + 1)),
                              (OrderKernel(limit, e), sorted(powers, reverse=True))):
            for n in order:
                o = kernel.ord(n)
                m = _e_free(n, e)
                if m not in certified:
                    assert pow(e, o, m) == 1 % m, (e, n)
                    for r, _ in _prime_powers_by_table(o, lpf):
                        assert pow(e, o // r, m) != 1 % m, (e, n, r)
                    certified[m] = o
                assert o == certified[m], (e, n)
                if lpf[n] == n > 1:  # a prime's order, read off the O array
                    assert kernel.values("O", [(n, n)]) == [o], (e, n)
    # above the table, values fall through to the orders module
    small = OrderKernel(1000, 6)
    for n in (*range(1001, 3000), limit + 1, 2**61 - 1, 600851475143 * 7919):
        assert small.ord(n) == coprime_order(6, n), n
        assert small.lam(n) == carmichael_lambda(factorize(n)), n
        assert small.lpf(n) == factorize(n).factors[-1][0], n
        if is_prime(n):
            assert small.values("O", [(n, n)]) == [coprime_order(6, n)], n
    for method in (small.ord, small.lam, small.lpf):
        with pytest.raises(ValueError):
            method(0)


def test_the_descent_at_two_and_at_primes_dividing_e():
    # p = 2 has no factor 2 to settle.  At a prime dividing e the symbol is
    # 0, which must not halve p - 1 as a symbol 1 does; callers skip p
    for e in (1, 3, 5, 15, 2**61 - 1):
        assert _prime_order(e, 2, ()) == 1, e
    for e in range(1, 40):
        assert coprime_order(e, 2) == 1, e
    for e, p in ((3, 3), (6, 3), (10, 5), (14, 7), (21, 7), (2310, 11), (3 * 65537, 65537)):
        odd = [r for r in factorize(p - 1).primes() if r > 2]
        assert jacobi(e, p) == 0 and _prime_order(e, p, odd) == p - 1, (e, p)
        assert coprime_order(e, p) == 1, (e, p)
        for r in (2, 13, 101, 65537):
            assert coprime_order(e, p * r) == coprime_order(e, r), (e, p, r)
        assert OrderKernel(1000, e).values("O", [(p, p), (p, p * p)]) == [1, 1], (e, p)


def test_the_descent_settles_the_factor_2_without_pow(monkeypatch):
    # Euler's criterion stands in for the descent's first pow(): an O fill
    # at every prime below 10^4 calls no pow(e, (p-1)/2, p), and at e = 2
    # averages at most 3 calls per odd prime (3.49 with that pow)
    primes = primes_in_range(2, 10**4)
    powers = [(p, p) for p in primes]
    want = {e: OrderKernel(10**4, e).values("O", powers) for e in (2, 3, 10)}
    calls = []

    def recording_pow(*args):
        calls.append(args)
        return pow(*args)

    monkeypatch.setattr(orders_mod, "pow", recording_pow, raising=False)
    for e in (2, 3, 10):
        calls.clear()
        assert OrderKernel(10**4, e).values("O", powers) == want[e], e
        assert calls, e
        assert not [c for c in calls if c[0] == e and 2 * c[1] + 1 == c[2]], e
        if e == 2:
            assert len(calls) <= 3.0 * (len(primes) - 1)


def test_orders_and_kernel_match_sympy():
    pytest.importorskip("sympy")
    from sympy import reduced_totient
    from sympy.ntheory import n_order

    rng = random.Random(20261018)
    for _ in range(300):
        n = rng.randrange(1, 2**40)
        e = rng.choice((2, 3, 6, 10, 12, rng.randrange(2, 2**40)))
        m = _e_free(n, e)
        assert coprime_order(e, n) == (n_order(e, m) if m > 1 else 1), (e, n)
        assert carmichael_lambda(factorize(n)) == reduced_totient(n), n
    limit = 10**5
    for e in (2, 3, 6, 10, 12):
        kernel = OrderKernel(limit, e)
        for n in rng.sample(range(1, limit + 1), 400):
            m = _e_free(n, e)
            assert kernel.ord(n) == (n_order(e, m) if m > 1 else 1), (e, n)
            assert kernel.lam(n) == reduced_totient(n), n
