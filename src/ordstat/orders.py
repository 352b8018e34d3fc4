"""Multiplicative order functions and the Carmichael function.

The central quantity is coprime_order(e, n): the multiplicative order of e
modulo the largest divisor of n that is coprime to e.  It is the eventual
period of the sequence e^i mod n and the building block for both generator
period formulas.  Orders are computed per prime power, never by stepping:
ord(e, p) descends from p - 1 over the primes of p - 1 (_prime_order),
ord(e, p^a) is ord(e, p^(a-1)) or p times it, whichever pow() says, and the
order modulo n is the lcm over the prime powers of n.  The descent yields
the order already factored, so a query factors its modulus once (and p - 1
for each prime p of it) and never factors lambda(n) or an order.

Surveys read the same quantities through an OrderKernel per base, which
gets each factorization from one place (OrderKernel._prime_powers): a
smallest-prime-factor table of [1, min(x_max, 2^27)], and arith.factorize
above it.  Either way it runs the same descent and lambda rule
(_lambda_lcm).  The kernel owns all of a survey process's state: the table,
its orders ord(e, q) of the prime powers q <= limit (which class-counts
reads per prime), built when the first order is asked, and the arrays in
which the survey keeps its other per-integer values (OrderKernel.kept: the
integer kinds' prime-power values, and ord*(e, p - 1) per prime for
shifted-prime and rsa-pair), each 2 bytes per integer up to the limit.
Replacing the kernel frees them all.  Every path is exact, so neither the
table nor an array can change a result.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from .arith import Factorization, factorize, primes_in_range

# Largest table the order kernel builds: 2^27 + 1 entries of 2 bytes, 256 MiB.
SPF_TABLE_MAX = 2**27


def _lambda_lcm(prime_powers: Iterable[tuple[int, int]]) -> int:
    """lcm of lambda(q) over the (p, q = p^a) pairs: lambda(p^a) = (p-1)p^(a-1),
    except lambda(2) = 1, lambda(4) = 2 and lambda(2^a) = 2^(a-2) for a >= 3."""
    result = 1
    for p, q in prime_powers:
        if p == 2:
            lam = q >> 1 if q <= 4 else q >> 2
        else:
            lam = q - q // p
        result = math.lcm(result, lam)
    return result


def carmichael_lambda(f: Factorization) -> int:
    """lambda(value): the exponent of the multiplicative group mod value."""
    return _lambda_lcm([(p, p**a) for p, a in f.factors])


def coprime_part(n: int, e: int) -> int:
    """Largest divisor of n coprime to e."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    g = math.gcd(n, e)
    while g > 1:
        while n % g == 0:
            n //= g
        g = math.gcd(n, e)
    return n


def _prime_order(e: int, p: int, factors: Iterable[tuple[int, int]]) -> int:
    """ord(e, p) for a prime p not dividing e, descending from p - 1 over the
    primes r of the (r, _) pairs that factor p - 1."""
    o = p - 1
    for r, _ in factors:
        while o % r == 0 and pow(e, o // r, p) == 1:
            o //= r
    return o


def _split(m: int, primes: Iterable[int]) -> dict[int, int]:
    """m as {prime: exponent}, given primes that include every prime of m."""
    out: dict[int, int] = {}
    for r in primes:
        b = 0
        while m % r == 0:
            m //= r
            b += 1
        if b:
            out[r] = b
    return out


def _order_factors(e: int, factors: Iterable[tuple[int, int]],
                   known: Mapping[int, Factorization] | None = None) -> dict[int, int]:
    """ord*(e, m) as {prime: exponent}, for m the product of p^a over the
    (p, a) in factors: the order of e modulo the prime powers whose p does
    not divide e (the others are skipped).  known maps primes p to the
    factorization of p - 1 where the caller already has it."""
    order: dict[int, int] = {}
    for p, a in factors:
        if e % p == 0:
            continue
        below = known[p] if known and p in known else factorize(p - 1)
        o = _prime_order(e, p, below.factors)
        for k in range(2, a + 1):
            if pow(e, o, p**k) != 1:
                o *= p
        for r, b in _split(o, (*below.primes(), p)).items():
            if b > order.get(r, 0):
                order[r] = b
    return order


def _order(e: int, factors: Iterable[tuple[int, int]],
           known: Mapping[int, Factorization] | None = None) -> int:
    """ord*(e, m) for m given by its (p, a) factors."""
    return math.prod(r**b for r, b in _order_factors(e, factors, known).items())


def multiplicative_order(e: int, n: int) -> int:
    """Least k >= 1 with e^k = 1 mod n; requires gcd(e, n) = 1."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if math.gcd(e, n) != 1:
        raise ValueError(f"gcd({e}, {n}) > 1: order undefined")
    return _order(e, factorize(n).factors)


def coprime_order(e: int, n: int) -> int:
    """Order of e modulo coprime_part(n, e): the eventual period of e^i mod n."""
    return multiplicative_order(e, coprime_part(n, e))


def squarefree_core(n: int) -> int:
    """Product of the distinct primes dividing n; 1 for n = 1."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return math.prod(factorize(n).primes())


def omega(n: int) -> int:
    """Number of distinct prime divisors of n."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return len(factorize(n).factors)


def smooth_part(n: int, prime_pred: Callable[[int], bool]) -> int:
    """Largest divisor of n whose prime factors all satisfy prime_pred."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    out = 1
    for p, a in factorize(n).factors:
        if prime_pred(p):
            out *= p**a
    return out


@dataclass(frozen=True)
class OrderProfile:
    """Order data for a pair (e, n).

    index is (n-1)/ord(e, n), populated only for prime n coprime to e.
    """

    n: int
    e: int
    n_coprime: int
    lambda_n: int
    ord_star: int
    index: int | None = None


def order_profile(e: int, n: int) -> OrderProfile:
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    f = factorize(n)
    nc = math.prod(p**a for p, a in f.factors if e % p)
    o = _order(e, f.factors)
    index = (n - 1) // o if f.factors == ((n, 1),) and nc == n else None
    return OrderProfile(n=n, e=e, n_coprime=nc, lambda_n=carmichael_lambda(f),
                        ord_star=o, index=index)


class OrderKernel:
    """lambda(n), ord*(e, n) and the largest prime factor of n for one base e,
    all from n's prime powers, which _prime_powers alone gets: off the table
    for 1 <= n <= limit, through arith.factorize above it.

    The table holds the smallest prime factor of every composite n <= limit
    and 0 for 0, 1 and the primes: that factor is at most isqrt(limit),
    below 2^16 for limit <= 2^32, so 2 bytes per entry suffice.  ord*(e, n)
    is the lcm of ord(e, q) over the prime powers q = p^a exactly dividing
    n with p not dividing e.  ord(e, q), one descent and lift at any q, is
    kept once computed for q <= limit in the order array (_orders), built
    on its first use: 4 bytes per odd integer, odd q at index q // 2, and
    q = 2^a at index -a - 1, in a tail of limit.bit_length() entries after
    the odd ones.  prime_order reads it for a prime q.  A kernel never asked
    for an order (lambda and largest prime factors only) never builds it.
    """

    def __init__(self, limit: int, e: int):
        self.limit = limit
        self.e = e
        spf = array("H", bytes(2 * (limit + 1)))
        # descending, so that each entry ends up holding its smallest prime
        for p in reversed(primes_in_range(2, math.isqrt(limit) + 1)):
            spf[p * p :: p] = array("H", [p]) * len(range(p * p, limit + 1, p))
        self._spf = spf
        self._orders: array | None = None  # built on the first order asked
        self._arrays: dict = {}

    def kept(self, key, value: Callable[[int], int]) -> Callable[[int], int]:
        """value, each value(n) for odd 1 <= n <= limit kept once computed in
        the kernel's array for key, at index n // 2; value must be positive
        (0 marks a value not yet computed) and below 2^32.  4 bytes per odd
        integer, 2 per integer; one array per key for the kernel's life,
        shared by every value kept under that key."""
        limit, kept = self.limit, self._arrays.get(key)
        if kept is None:
            kept = self._arrays[key] = array("I", [0]) * (limit // 2 + 1)

        def kept_value(n: int) -> int:
            if n & 1 and n <= limit:
                v = kept[n >> 1]
                if not v:
                    v = kept[n >> 1] = value(n)
                return v
            return value(n)
        return kept_value

    def _prime_powers(self, n: int) -> list[tuple[int, int]]:
        """(p, p^a) for each prime power exactly dividing n >= 1, p rising:
        off the table for n <= limit, through arith.factorize above it."""
        if not 1 <= n <= self.limit:
            return [(p, p**a) for p, a in factorize(n).factors]
        spf = self._spf
        out = []
        while n > 1:
            p = spf[n] or n
            q = p
            n //= p
            while n % p == 0:
                n //= p
                q *= p
            out.append((p, q))
        return out

    def _prime_power_order(self, p: int, q: int) -> int:
        """ord(e, q) for q = p^a with p not dividing e: descended from p - 1
        for q = p, else ord(e, q / p) or p times it; kept in the order array
        for q <= limit."""
        limit, i = self.limit, None  # i: q's index in the order array
        if q <= limit:
            orders = self._orders
            if orders is None:
                orders = self._orders = array("I", [0]) * (limit // 2 + 1 + limit.bit_length())
            i = q >> 1 if q & 1 else -q.bit_length()
            o = orders[i]
            if o:
                return o
        if q == p:
            o = _prime_order(self.e, p, self._prime_powers(p - 1))
        else:
            o = self._prime_power_order(p, q // p)
            if pow(self.e, o, q) != 1:
                o *= p
        if i is not None:
            orders[i] = o
        return o

    def prime_order(self, p: int) -> int:
        """ord*(e, p) for a prime p: ord(e, p), or 1 when p divides e."""
        return 1 if self.e % p == 0 else self._prime_power_order(p, p)

    def ord(self, n: int) -> int:
        """ord*(e, n): the order of e modulo the largest divisor of n coprime to e."""
        e = self.e
        result = 1
        for p, q in self._prime_powers(n):
            if e % p:
                result = math.lcm(result, self._prime_power_order(p, q))
        return result

    def lam(self, n: int) -> int:
        """Carmichael lambda(n)."""
        return _lambda_lcm(self._prime_powers(n))

    def lpf(self, n: int) -> int:
        """Largest prime factor of n, 1 for n = 1."""
        powers = self._prime_powers(n)
        return powers[-1][0] if powers else 1


_order_kernel = functools.lru_cache(maxsize=1)(OrderKernel)
