"""The benchmark's own integer arithmetic, used to build query inputs and to
certify the answers the program gives for them.

Nothing here imports ordstat or copies its code.  Every modulus is built
from primes chosen here, so its factorization is known without factoring,
and an order is certified by the defining identity: g^k = 1 and
g^(k/q) != 1 for every prime q dividing k.
"""

from __future__ import annotations

import math
import random

# Deterministic Miller-Rabin for n < 3.3 * 10^24 (the first 13 primes).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(rng: random.Random, bits: int, mod4: int | None = None) -> int:
    """A uniformly drawn prime with exactly `bits` bits (optionally = mod4 mod 4)."""
    while True:
        p = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if mod4 is not None and p % 4 != mod4:
            continue
        if is_prime(p):
            return p


def trial_factor(n: int) -> dict[int, int]:
    """Factorization of n by trial division; for the small numbers p - 1."""
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    p = 5
    while p * p <= n:
        for q in (p, p + 2):
            while n % q == 0:
                out[q] = out.get(q, 0) + 1
                n //= q
        p += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def value(fac: dict[int, int]) -> int:
    return math.prod(p**a for p, a in fac.items())


def lcm_fac(*facs: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for fac in facs:
        for p, a in fac.items():
            out[p] = max(out.get(p, 0), a)
    return out


def carmichael(fac: dict[int, int]) -> dict[int, int]:
    """Factorization of lambda(n) from the factorization of n."""
    parts = []
    for p, a in fac.items():
        if p == 2:
            parts.append({2: 0 if a == 1 else (1 if a == 2 else a - 2)})
        else:
            part = dict(trial_factor(p - 1))
            if a > 1:
                part[p] = a - 1
            parts.append(part)
    return {p: a for p, a in lcm_fac(*parts).items() if a}


def strip(fac: dict[int, int], g: int) -> dict[int, int]:
    """Factorization of the largest divisor coprime to g."""
    return {p: a for p, a in fac.items() if g % p}


def order(g: int, m_fac: dict[int, int]) -> dict[int, int]:
    """Factorization of the multiplicative order of g modulo value(m_fac),
    found by descending from lambda; requires gcd(g, m) = 1."""
    m = value(m_fac)
    k_fac = carmichael(m_fac)
    k = value(k_fac)
    for q in list(k_fac):
        while k_fac.get(q) and pow(g, k // q, m) == 1:
            k //= q
            k_fac[q] -= 1
    return {p: a for p, a in k_fac.items() if a}


def certify_order(g: int, m: int, k: int, multiple_fac: dict[int, int]) -> bool:
    """True iff k is the order of g mod m.  multiple_fac factors a number
    the order divides, such as lambda(m); k must divide it too, and its
    primes are the candidates q in the check g^(k/q) != 1."""
    if m == 1:
        return k == 1
    if k < 1 or value(multiple_fac) % k or pow(g, k, m) != 1:
        return False
    return all(pow(g, k // q, m) != 1 for q in multiple_fac if k % q == 0)


def power_period(e: int, u: int, m_fac: dict[int, int]) -> tuple[int, dict[int, int]]:
    """Eventual period of u -> u^e mod m for u coprime to m: the order of e
    modulo the part of ord_m(u) coprime to e.  Returns (period, factorization
    of the modulus that the period is an order for)."""
    o_fac = strip(order(u, m_fac), e)
    return value(order(e, o_fac)), o_fac


# Fixed work for the reference slices that passrun.py interleaves with the
# operations (see README): orders of 2 modulo 1500 odd numbers near 2 * 10^5,
# in the same small-integer, dict and pow style as the program's surveys.
REFERENCE_RANGE = range(200_001, 203_001, 2)


def reference_slice() -> int:
    return sum(value(order(2, trial_factor(n))) for n in REFERENCE_RANGE)
