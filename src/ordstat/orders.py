"""Multiplicative order functions and the Carmichael function.

The central quantity is coprime_order(e, n): the multiplicative order of e
modulo the largest divisor of n that is coprime to e.  It is the eventual
period of the sequence e^i mod n and the building block for both generator
period formulas.

One engine computes every order: the OrderKernel of the base e.  Orders
are computed per prime power, never by stepping: ord(e, p) descends from
p - 1 over the primes of p - 1 (_prime_order), the factor 2 settled by the
Jacobi symbol (e | p) (Euler's criterion) and each odd prime by pow();
ord(e, p^a) is ord(e, p^(a-1)) or p times it, whichever pow() says
(_prime_power_order), and the order modulo n is the lcm over the prime
powers of n.

A single-value query runs on a kernel with no table, OrderKernel(1, e),
built per call and keeping no order: it factors the modulus once, through
arith.factorize, and each descent factors p - 1.  It keeps
what it factors for the length of the query, and _query_kernels gives a
query that needs orders to two bases kernels sharing it, so no value is
factored twice.  Callers that already hold a factorization read
values("O", ...) at its prime powers rather than ord(n), so no query
factors its modulus twice.

A survey asks _survey_kernel for the kernel of its x_max and base, whose
table is the smallest prime factor of each integer in
[1, min(x_max, SPF_TABLE_MAX)]; only this module knows that cap.  The
kernel gets each factorization from one place (OrderKernel._prime_powers):
off the table, and through arith.factorize above it.  The one exception is
the descent's odd primes of p - 1, which _prime_power_order walks off the
table itself when the table holds them.  Either way it runs the same
descent and lambda rule (_lambda_lcm).  The kernel owns all of a survey
process's state: the table and at most three arrays, one for each quantity
it keeps at the prime powers q up to its limit: O(q) = ord*(e, q),
L(q) = ord*(e, lambda(q)) and LL(q) = lambda(lambda(q)), each 2 bytes per
integer and built on the quantity's first use.  Every survey kind's q is
the lcm of one quantity over its item's prime powers, so kinds with one
quantity share its array.  Replacing the kernel frees them all.  Every
path is exact, so neither the table nor an array can change a result.
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
    return _lambda_lcm(f.powers())


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


def multiplicative_order(e: int, n: int) -> int:
    """Least k >= 1 with e^k = 1 mod n; requires gcd(e, n) = 1."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if math.gcd(e, n) != 1:
        raise ValueError(f"gcd({e}, {n}) > 1: order undefined")
    return OrderKernel(1, e).ord(n)


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
    o = math.lcm(*OrderKernel(1, e).values("O", f.powers()))
    index = (n - 1) // o if f.factors == ((n, 1),) and nc == n else None
    return OrderProfile(n=n, e=e, n_coprime=nc, lambda_n=carmichael_lambda(f),
                        ord_star=o, index=index)


class OrderKernel:
    """The package's one order engine for a base e, which keeps these
    quantities at a prime power q = p^a:

        O(q)    ord*(e, q): ord(e, q), or 1 when p divides e
        L(q)    ord*(e, lambda(q))
        LL(q)   lambda(lambda(q))
        lpf     the largest prime factor of q - 1, for a prime q

    O(p) descends from p - 1 (_prime_order), fed p - 1's odd primes in one
    walk of the table, or through arith.factorize above it, and O(p^a) is
    O(p^(a-1)) or p times it, as one pow() decides.  L and LL take
    lambda(q) by the lambda rule, then ord and lam below, except that L at
    an odd q = p^a, a >= 2, is lcm(L(p), O(q / p)).  O, L and LL are
    kept once computed for q <= limit, each in one array of its own, built
    on the quantity's first use, under one slot rule: odd q at index
    q // 2, and q = 2^a at index -a - 1, in a tail of limit.bit_length()
    entries after the odd ones.
    That is 4 bytes per odd integer, 2 per integer, like the table.  lpf is
    cheap and kept nowhere.

    The kernel also gives ord*(e, n), lambda(n) and the largest prime
    factor of n at any n >= 1, from n's prime powers, which _prime_powers
    alone gets: off the table for n <= limit, through arith.factorize above
    it.  The table covers [1, limit].  It holds the smallest prime factor
    of every composite n and 0 for 0, 1 and the primes: that factor is at
    most isqrt(limit), below 2^16 for limit <= 2^32, so 2 bytes per entry
    suffice.

    Single-value queries build OrderKernel(1, e): its table is empty and
    its arrays hold only q = 1, so every value goes through arith.factorize
    and no order is kept.  It keeps each factorization instead, so that the
    query makes it once.  Limit 1, not 0, keeps (1, 1) in its slot (L
    would otherwise take ord(0)) and 1 off arith.factorize, where the
    descent at p = 2 or 3 has no odd part of p - 1 to factor.
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
        # a table-less kernel serves one query: it keeps what it factors
        self._factored: dict[int, list] | None = {} if limit == 1 else None

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
        off the table for n <= limit, through arith.factorize above it, and
        for a table-less kernel once per n."""
        if not 1 <= n <= self.limit:
            factored = self._factored
            if factored is None:
                return factorize(n).powers()
            if n not in factored:
                factored[n] = factorize(n).powers()
            return factored[n]
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
        # lies above the table: then p - 1 is factored whole, as L(p) =
        # ord*(e, p - 1) factors it, so a table-less kernel does it once
        m = p - 1
        m //= m & -m
        if m > kernel.limit:
            return _prime_order(e, p, [r for r, _ in kernel._prime_powers(p - 1)[1:]])
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


def _lambda_order(kernel: OrderKernel, p: int, q: int) -> int:
    """L(q) at q = p^a: ord*(e, lambda(q)), and for odd p and a >= 2, where
    lambda(q) = (p - 1) * q / p with coprime factors, lcm(L(p), O(q / p)):
    p - 1 is factored for L(p) alone."""
    if p == 2 or q == p:
        return kernel.ord(_lambda_lcm([(p, q)]))
    return math.lcm(*kernel.values("L", [(p, p)]), *kernel.values("O", [(p, q // p)]))


# How the kernel computes each kept quantity at a prime power q = p^a.
_QUANTITIES = {
    "O": _prime_power_order,
    "L": _lambda_order,
    "LL": lambda kernel, p, q: kernel.lam(_lambda_lcm([(p, q)])),
}

_order_kernel = functools.lru_cache(maxsize=1)(OrderKernel)


def _query_kernels(*bases: int) -> list[OrderKernel]:
    """Table-less kernels of the bases for one query, sharing what they
    factor, so that the query factors no value twice."""
    kernels = [OrderKernel(1, e) for e in bases]
    for kernel in kernels:
        kernel._factored = kernels[0]._factored
    return kernels


def _survey_kernel(x_max: int, e: int) -> OrderKernel:
    """The kernel of a survey up to x_max at base e, its table over
    [1, min(x_max, SPF_TABLE_MAX)]; a process keeps the last one asked."""
    return _order_kernel(min(x_max, SPF_TABLE_MAX), e)
