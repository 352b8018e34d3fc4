"""Multiplicative order functions and the Carmichael function.

The central quantity is coprime_order(e, n): the multiplicative order of e
modulo the largest divisor of n that is coprime to e.  It is the eventual
period of the sequence e^i mod n and the building block for both generator
period formulas.  Orders are computed per prime power, never by stepping:
ord(e, p) descends from p - 1 over the primes of p - 1 (_prime_order), the
factor 2 settled by the Jacobi symbol (e | p) (Euler's criterion) and each
odd prime by pow(); ord(e, p^a) is ord(e, p^(a-1)) or p times it, whichever
pow() says, and the order modulo n is the lcm over the prime powers of n.
The descent yields the order already factored, so a query factors its
modulus once (and p - 1 for each prime p of it) and never factors lambda(n)
or an order.

Surveys read the same quantities through an OrderKernel per base, which
gets each factorization from one place (OrderKernel._prime_powers): a
smallest-prime-factor table of [1, min(x_max, SPF_TABLE_MAX)], and
arith.factorize above it.  The one exception is the descent's odd primes
of p - 1, which _prime_power_order walks off the table itself when the
table holds them.  Only this module knows that cap: surveys ask
_survey_kernel for the kernel of their x_max and base.  Either way it
runs the same descent and lambda rule (_lambda_lcm).  The kernel owns all
of a survey process's state: the table and at most three arrays, one for
each quantity it keeps at the prime powers q up to its limit:
O(q) = ord*(e, q), L(q) = ord*(e, lambda(q)) and LL(q) = lambda(lambda(q)),
each 2 bytes per integer and built on the quantity's first use.  Every
survey kind's q is the lcm of one quantity over its item's prime powers,
so kinds with one quantity share its array.  Replacing the kernel frees
them all.  Every path is exact, so neither the table nor an array can
change a result.
"""

from __future__ import annotations

import functools
import math
from array import array

from ._record import FrozenRecord
from .arith import Factorization, factorize, jacobi, primes_in_range

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


def _prime_order(e: int, p: int, odd_primes: Iterable[int]) -> int:
    """ord(e, p) for a prime p not dividing e, descending from p - 1 over
    its factor 2, then over the odd primes of p - 1, given.  The factor 2
    starts from the Jacobi symbol (e | p), not pow(): by Euler's criterion
    e^((p-1)/2) = (e | p) mod p, so at (e | p) = -1 the order keeps all of
    p - 1's 2s, and at 1 it halves p - 1 and pow() decides each further 2.
    Each odd prime r is divided out while pow() says e^(o/r) = 1."""
    o = p - 1
    if p > 2 and jacobi(e, p) == 1:
        o >>= 1
        while not o & 1 and pow(e, o >> 1, p) == 1:
            o >>= 1
    for r in odd_primes:
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
        o = _prime_order(e, p, below.primes()[1:])  # 2 is first for odd p
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


class OrderProfile(FrozenRecord):
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
    """The survey quantities for one base e, at a prime power q = p^a:

        O(q)    ord*(e, q): ord(e, q), or 1 when p divides e
        L(q)    ord*(e, lambda(q))
        LL(q)   lambda(lambda(q))
        lpf     the largest prime factor of q - 1, for a prime q

    O(p) descends from p - 1 (_prime_order), fed p - 1's odd primes in one
    walk of the table, and O(p^a) is O(p^(a-1)) or p times it, as one pow()
    decides.  L and LL take lambda(q) by the lambda rule, then ord and lam
    below.  O, L and LL are kept once computed for q <= limit, each in one
    array of its own, built on the quantity's first use, under one slot
    rule: odd q at index q // 2, and q = 2^a at index -a - 1, in a tail of
    limit.bit_length() entries after the odd ones.
    That is 4 bytes per odd integer, 2 per integer, like the table.  lpf is
    cheap and kept nowhere.

    The kernel also gives ord*(e, n), lambda(n) and the largest prime
    factor of n at any n >= 1, from n's prime powers, which _prime_powers
    alone gets: off the table for n <= limit, through arith.factorize above
    it.  The table covers [1, limit].  It holds the smallest prime factor
    of every composite n and 0 for 0, 1 and the primes: that factor is at
    most isqrt(limit), below 2^16 for limit <= 2^32, so 2 bytes per entry
    suffice.
    """

    def __init__(self, limit: int, e: int):
        self.limit = limit
        self.e = e
        spf = array("H", bytes(2 * (limit + 1)))
        # descending, so that each entry ends up holding its smallest prime
        for p in reversed(primes_in_range(2, math.isqrt(limit) + 1)):
            spf[p * p :: p] = array("H", [p]) * len(range(p * p, limit + 1, p))
        self._spf = spf
        self._kept: dict[str, array] = {}

    def values(self, quantity: str, powers: Iterable[tuple[int, int]]) -> list[int]:
        """The column of quantity ("O", "L", "LL" or "lpf") at each prime
        power q = p^a of the (p, q) pairs in powers, or 1 where O, L and LL
        are 1 at (1, 1): q = 1's slot holds 1 from the start, and 0 marks a
        value not yet computed."""
        if quantity == "lpf":
            return [self.lpf(q - 1) for _, q in powers]
        limit, compute = self.limit, _QUANTITIES[quantity]
        kept = self._kept.get(quantity)
        if kept is None:
            kept = self._kept[quantity] = array("I", [0]) * (limit // 2 + 1 + limit.bit_length())
            kept[0] = 1
        out = []
        for p, q in powers:
            if q > limit:
                v = compute(self, p, q)
            else:
                i = q >> 1 if q & 1 else -q.bit_length()
                v = kept[i]
                if not v:
                    v = kept[i] = compute(self, p, q)
            out.append(v)
        return out

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

    def ord(self, n: int) -> int:
        """ord*(e, n): the order of e modulo the largest divisor of n coprime to e."""
        return math.lcm(*self.values("O", self._prime_powers(n)))

    def lam(self, n: int) -> int:
        """Carmichael lambda(n)."""
        return _lambda_lcm(self._prime_powers(n))

    def lpf(self, n: int) -> int:
        """Largest prime factor of n, 1 for n = 1."""
        powers = self._prime_powers(n)
        return powers[-1][0] if powers else 1


def _prime_power_order(kernel: OrderKernel, p: int, q: int) -> int:
    """O(q) at q = p^a: descended from p - 1 for q = p, without
    OrderKernel.ord, else O(q / p) or p times it."""
    e = kernel.e
    if e % p == 0:
        return 1
    if q == p:
        # p - 1's odd primes in one walk of the table, unless its odd part
        # lies above the table
        m = p - 1
        m //= m & -m
        if m > kernel.limit:
            return _prime_order(e, p, [r for r, _ in kernel._prime_powers(m)])
        spf, odd = kernel._spf, []
        while m > 1:
            r = spf[m] or m
            odd.append(r)
            m //= r
            while m % r == 0:
                m //= r
        return _prime_order(e, p, odd)
    [o] = kernel.values("O", [(p, q // p)])
    return o if pow(e, o, q) == 1 else o * p


# How the kernel computes each kept quantity at a prime power q = p^a.
_QUANTITIES = {
    "O": _prime_power_order,
    "L": lambda kernel, p, q: kernel.ord(_lambda_lcm([(p, q)])),
    "LL": lambda kernel, p, q: kernel.lam(_lambda_lcm([(p, q)])),
}

_order_kernel = functools.lru_cache(maxsize=1)(OrderKernel)


def _survey_kernel(x_max: int, e: int) -> OrderKernel:
    """The kernel of a survey up to x_max at base e, its table over
    [1, min(x_max, SPF_TABLE_MAX)]; a process keeps the last one asked."""
    return _order_kernel(min(x_max, SPF_TABLE_MAX), e)
