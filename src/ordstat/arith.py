"""Exact integer arithmetic on the unsigned 64-bit range.

Primality is a deterministic Miller-Rabin with a witness set valid for all
n < 2^64, factorization is trial division by sieved small primes followed
by Brent's cycle variant of Pollard rho with the increments c = 1, 2, ...
tried in turn until a round splits n, so every result is reproducible bit
for bit.
The trial stage walks the primes up to _TRIAL_BOUND in blocks of
_TRIAL_BLOCK and skips a whole block when n is coprime to the block's
product (one gcd), so only blocks holding a factor of n are divided one
prime at a time.  The Jacobi symbol comes by quadratic reciprocity, in a
few integer steps where Euler's criterion would take a pow().
Everything here is a pure function; the sieve helpers return fresh lists.
"""

from __future__ import annotations

import functools
import itertools
import math
from ._record import FrozenRecord

U64_MAX = 2**64 - 1

_TRIAL_BOUND = 100_000
_TRIAL_BLOCK = 64

# Witnesses proving primality for every n < 2^64 (Sinclair's seven-base set).
_MR_WITNESSES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)


class OverflowError64(OverflowError):
    """A result left the unsigned 64-bit range instead of wrapping."""


class Factorization(FrozenRecord):
    """Canonical prime decomposition: factors are (prime, exponent) pairs
    with strictly increasing primes, and value 1 has an empty factor list."""

    value: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.value < 1:
            raise ValueError(f"value must be positive, got {self.value}")
        prev = 1
        prod = 1
        for p, a in self.factors:
            if p <= prev or a < 1:
                raise ValueError(f"malformed factor list for {self.value}")
            prev = p
            prod *= p**a
        if prod != self.value:
            raise ValueError(f"factors do not multiply to {self.value}")

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


def pow_mod(base: int, exp: int, modulus: int) -> int:
    """base^exp mod modulus for nonnegative base and exp."""
    if modulus < 1:
        raise ValueError(f"modulus must be >= 1, got {modulus}")
    if base < 0 or exp < 0:
        raise ValueError("base and exponent must be nonnegative")
    return pow(base, exp, modulus)


def gcd(a: int, b: int) -> int:
    return math.gcd(a, b)


def jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a | n) for odd n > 0, by quadratic reciprocity:
    1 or -1, and 0 when gcd(a, n) > 1.  For a prime n it is the Legendre
    symbol, a^((n-1)/2) mod n read as 1, -1 or 0 (Euler's criterion)."""
    if n < 1 or not n & 1:
        raise ValueError(f"n must be odd and positive, got {n}")
    a %= n
    s = 1
    while a:
        twos = (a & -a).bit_length() - 1
        a >>= twos
        if twos & 1 and n & 7 in (3, 5):  # (2 | n) = -1 for n = 3, 5 mod 8
            s = -s
        if a & n & 2:  # both 3 mod 4
            s = -s
        a, n = n % a, a
    return s if n == 1 else 0


def lcm(a: int, b: int) -> int:
    """Least common multiple; raises OverflowError64 past 2^64 - 1."""
    if a == 0 or b == 0:
        return 0
    result = a // math.gcd(a, b) * b
    if result > U64_MAX:
        raise OverflowError64(f"lcm({a}, {b}) = {result} exceeds 64 bits")
    return result


def is_prime(n: int) -> bool:
    """Deterministic primality for all 0 <= n < 2^64."""
    if n > U64_MAX:
        raise ValueError(f"{n} does not fit in 64 bits")
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        if a % n == 0:
            continue
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


@functools.cache
def _trial_table() -> list[tuple[int, int, list[int]]]:
    """The primes <= _TRIAL_BOUND in runs of _TRIAL_BLOCK, each as
    (square of the run's first prime, product, run)."""
    primes = sieve_primes(_TRIAL_BOUND)
    runs = [primes[i : i + _TRIAL_BLOCK] for i in range(0, len(primes), _TRIAL_BLOCK)]
    return [(run[0] * run[0], math.prod(run), run) for run in runs]


def _brent_rho(n: int, c: int) -> int | None:
    """One Brent-rho round with increment c; a nontrivial factor or None."""
    y, r, q = 2, 1, 1
    g = 1
    m = 128
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
        # backtrack one step at a time from the saved point
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = math.gcd(x - ys, n)
    return g if g != n else None


def _split(n: int, out: dict[int, int]) -> None:
    # n here has no prime factor <= _TRIAL_BOUND
    if n == 1:
        return
    if is_prime(n):
        out[n] = out.get(n, 0) + 1
        return
    c = 1
    while (d := _brent_rho(n, c)) is None:
        c += 1
    _split(d, out)
    _split(n // d, out)


def factorize(n: int) -> Factorization:
    """Canonical Factorization of n >= 1; deterministic for all 64-bit n."""
    if n == 0:
        raise ValueError("cannot factorize 0")
    if n < 0 or n > U64_MAX:
        raise ValueError(f"{n} is outside the unsigned 64-bit range")
    value = n
    fac: dict[int, int] = {}
    for first_square, product, run in _trial_table():
        if first_square > n:
            break
        if math.gcd(n, product) == 1:
            continue
        for p in run:
            if p * p > n:
                break
            while n % p == 0:
                fac[p] = fac.get(p, 0) + 1
                n //= p
    if n > 1:
        if n <= _TRIAL_BOUND * _TRIAL_BOUND:
            # cofactor below the trial square has no divisor left: prime
            fac[n] = fac.get(n, 0) + 1
        else:
            _split(n, fac)
    return Factorization(value, tuple(sorted(fac.items())))


def primes_in_range(lo: int, hi: int) -> list[int]:
    """Primes p with lo <= p < hi, by a segmented sieve over [lo, hi) whose
    base primes, those up to sqrt(hi - 1), come from a call of its own."""
    lo = max(lo, 2)
    if hi <= lo:
        return []
    root = math.isqrt(hi - 1)
    base = primes_in_range(2, root + 1)
    out: list[int] = []
    segment = max(1 << 16, root)
    for start in range(lo, hi, segment):
        end = min(start + segment, hi)
        flags = bytearray([1]) * (end - start)
        for p in base:
            first = max(p * p, (start + p - 1) // p * p)
            if first < end:
                flags[first - start :: p] = bytes(len(range(first, end, p)))
        out.extend(itertools.compress(range(start, end), flags))
    return out


def sieve_primes(limit: int) -> list[int]:
    """All primes <= limit, ascending."""
    return primes_in_range(2, limit + 1)
