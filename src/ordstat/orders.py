"""Multiplicative order functions and the Carmichael function.

The central quantity is coprime_order(e, n): the multiplicative order of e
modulo the largest divisor of n that is coprime to e.  It is the eventual
period of the sequence e^i mod n and the building block for both generator
period formulas.  Orders are computed per prime power, never by stepping:
ord(e, p) descends from p - 1 over the primes of p - 1, ord(e, p^a) is
ord(e, p^(a-1)) or p times it, whichever pow() says, and the order modulo n
is the lcm over the prime powers of n.  The descent yields the order already
factored, so a query factors its modulus once (and p - 1 for each prime p
of it) and never factors lambda(n) or an order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

from .arith import Factorization, factorize, lcm


def carmichael_lambda(f: Factorization) -> int:
    """lambda(value): the exponent of the multiplicative group mod value.

    Prime-power rule: lambda(p^a) = (p-1)p^(a-1), except lambda(2) = 1,
    lambda(4) = 2 and lambda(2^a) = 2^(a-2) for a >= 3; combined by lcm.
    """
    result = 1
    for p, a in f.factors:
        if p == 2:
            lam = 1 if a == 1 else (2 if a == 2 else 1 << (a - 2))
        else:
            lam = (p - 1) * p ** (a - 1)
        result = lcm(result, lam)
    return result


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


def _order_factors(e: int, factors: Iterable[tuple[int, int]]) -> dict[int, int]:
    """ord*(e, m) as {prime: exponent}, for m the product of p^a over the
    (p, a) in factors: the order of e modulo the prime powers whose p does
    not divide e (the others are skipped)."""
    order: dict[int, int] = {}
    for p, a in factors:
        if e % p == 0:
            continue
        o = p - 1
        own: dict[int, int] = {}
        for r, b in factorize(o).factors:
            while b and pow(e, o // r, p) == 1:
                o //= r
                b -= 1
            if b:
                own[r] = b
        q = p
        for _ in range(a - 1):
            q *= p
            if pow(e, o, q) != 1:
                o *= p
                own[p] = own.get(p, 0) + 1
        for r, b in own.items():
            if b > order.get(r, 0):
                order[r] = b
    return order


def multiplicative_order(e: int, n: int) -> int:
    """Least k >= 1 with e^k = 1 mod n; requires gcd(e, n) = 1."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if math.gcd(e, n) != 1:
        raise ValueError(f"gcd({e}, {n}) > 1: order undefined")
    return math.prod(r**b for r, b in _order_factors(e, factorize(n).factors).items())


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
    o = math.prod(r**b for r, b in _order_factors(e, f.factors).items())
    index = (n - 1) // o if f.factors == ((n, 1),) and nc == n else None
    return OrderProfile(n=n, e=e, n_coprime=nc, lambda_n=carmichael_lambda(f),
                        ord_star=o, index=index)
