"""Multiplicative order functions and the Carmichael function.

The central quantity is coprime_order(e, n): the multiplicative order of e
modulo the largest divisor of n that is coprime to e.  It is the eventual
period of the sequence e^i mod n and the building block for both generator
period formulas.

One engine computes every order: the OrderKernel of the base e.  Orders
are computed per prime power, never by stepping: ord(e, p) descends from
p - 1 over the primes of p - 1, the factor 2 settled by the Jacobi symbol
(e | p) (Euler's criterion), which the kernel keeps per residue of p mod 4e,
and each odd prime by pow(); ord(e, p^a) is ord(e, p^(a-1)) or p times it,
whichever pow() says (_prime_power_order, both); and the order modulo n is
the lcm over the prime powers of n.

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
kernel builds its table at the first value it computes that reads it, so a
process that only reads kept values builds none.  It gets each
factorization from one place (OrderKernel._prime_powers): off the table,
and through arith.factorize above it.  The one exception is the descent's
odd primes of p - 1, which _prime_power_order walks off the table itself,
descending as it walks, when the table holds them.  Either way it runs the
same descent and lambda rule (_lambda_lcm).  The kernel owns all of a survey process's state: the
table and at most three arrays, one for each quantity it keeps at the
prime powers q up to its limit: O(q) = ord*(e, q),
L(q) = ord*(e, lambda(q)) and LL(q) = lambda(lambda(q)), each 2 bytes per
integer and built on the quantity's first use.  Every survey kind's q is
the lcm of one quantity over its item's prime powers, so kinds with one
quantity share its array.

A process keeps one survey kernel, _kernel, which serves every survey at
its base and limit, and one of a smaller limit that needs no array it does
not hold yet; any other survey replaces it, and frees its table and arrays
with it.  Before a pooled survey, the parent maps the arrays its kind fills
as anonymous shared memory (_share_arrays), computing nothing, so building
no table: O for O, O and L for L, LL for LL, none for lpf.  Forked workers inherit the
kernel, so they fill one set of arrays together, and the parent keeps
every value they filled for its next survey the kernel serves, pooled or
not.  Each value is exact and goes from 0 to its final value in one
aligned 4-byte store, so two workers racing on a slot can only compute it
twice.  Workers started by spawn or forkserver inherit nothing and fill
arrays of their own.  An array no pool shares stays an array("I").  Every
path is exact, so neither the table nor an array can change a result.
"""

from __future__ import annotations

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

    O(p) descends from p - 1 (_prime_power_order) over p - 1's odd primes,
    walked off the table, or through arith.factorize above it, taking
    (e | p) from a memo keyed by p mod 4e, and O(p^a) is O(p^(a-1)) or p
    times it, as one pow() decides.  L and LL take
    lambda(q) by the lambda rule, then ord and lam below, except that L at
    an odd q = p^a, a >= 2, is lcm(L(p), O(q / p)).  O, L and LL are
    kept once computed for q <= limit, each in one array of its own, built
    on the quantity's first use or mapped before a pool (_share_arrays),
    under one slot rule: odd q at index
    q // 2, and q = 2^a at index -a - 1, in a tail of limit.bit_length()
    entries after the odd ones.
    That is 4 bytes per odd integer, 2 per integer, like the table.  lpf is
    cheap and kept nowhere.

    The kernel also gives ord*(e, n), lambda(n) and the largest prime
    factor of n at any n >= 1, from n's prime powers, which _prime_powers
    alone gets: off the table for n <= limit, through arith.factorize above
    it.  The table covers [1, limit] and is built at the first value the
    kernel computes that reads it (_build_table), so a kernel that only
    reads kept values has none.  It holds the smallest prime factor of
    every composite n and 0 for 0, 1 and the primes: that factor is at most
    isqrt(limit), below 2^16 for limit <= 2^32, so 2 bytes per entry
    suffice.

    Single-value queries build OrderKernel(1, e): it builds no table and
    its arrays hold only q = 1, so every value goes through arith.factorize
    and no order is kept.  It keeps each factorization instead, so that the
    query makes it once.  Limit 1, not 0, keeps (1, 1) in its slot (L
    would otherwise take ord(0)).
    """

    def __init__(self, limit: int, e: int):
        self.limit = limit
        self.e = e
        self._spf: array | None = None  # the table, built by _build_table
        self._kept: dict[str, array | memoryview] = {}
        # a table-less kernel serves one query: it keeps what it factors
        self._factored: dict[int, list] | None = {} if limit == 1 else None
        self._symbols: dict[int, int] = {}  # (e | p) by p mod 4e, for odd p

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
            kept = self._kept[quantity] = array("I", [0]) * _slots(limit)
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

    def _build_table(self) -> array:
        """The table, built at the kernel's first value that reads it."""
        spf = array("H", bytes(2 * (self.limit + 1)))
        # descending, so that each entry ends up holding its smallest prime
        for p in reversed(primes_in_range(2, math.isqrt(self.limit) + 1)):
            spf[p * p :: p] = array("H", [p]) * len(range(p * p, self.limit + 1, p))
        self._spf = spf
        return spf

    def _prime_powers(self, n: int) -> list[tuple[int, int]]:
        """(p, p^a) for each prime power exactly dividing n >= 1, p rising:
        none for 1, off the table for n <= limit, through arith.factorize
        above it, and for a table-less kernel once per n."""
        if n == 1:
            return []
        if not 1 <= n <= self.limit:
            factored = self._factored
            if factored is None:
                return factorize(n).powers()
            if n not in factored:
                factored[n] = factorize(n).powers()
            return factored[n]
        spf = self._spf or self._build_table()
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
    """O(q) at q = p^a: for q = p, ord(e, p) descended from p - 1, without
    OrderKernel.ord; else O(q / p) or p times it, whichever pow() says.

    The descent settles the factor 2 by the Jacobi symbol (e | p), not by
    pow(): by Euler's criterion e^((p-1)/2) = (e | p) mod p, so at -1 the
    order keeps all of p - 1's 2s, and at 1 it halves p - 1 and pow()
    decides each further 2.  Each odd prime r of p - 1 is then divided out
    while pow() says e^(o/r) = 1.  For odd p, (e | p) = (e | p mod 4e), so
    the kernel keeps it per residue met, each taken once by arith.jacobi.
    The odd primes come off one walk of the table, interleaved with the
    descent, unless p - 1's odd part is 1 or lies above the table: then
    p - 1 is factored whole, as L(p) = ord*(e, p - 1) factors it, so a
    table-less kernel does it once and builds no table."""
    e = kernel.e
    if e % p == 0 or q == 2:
        return 1
    if q != p:
        [o] = kernel.values("O", [(p, q // p)])
        return o if pow(e, o, q) == 1 else o * p
    symbols, k = kernel._symbols, p % (4 * e)
    o = m = p - 1
    if (symbols.get(k) or symbols.setdefault(k, jacobi(e, p))) == 1:
        o >>= 1
        while not o & 1 and pow(e, o >> 1, p) == 1:
            o >>= 1
    m //= m & -m
    if 1 < m <= kernel.limit:
        spf = kernel._spf or kernel._build_table()
    else:  # p - 1 factored, as a table of the least prime of each cofactor met
        spf, c = {}, m
        for r, rq in kernel._prime_powers(p - 1)[1:]:
            spf[c], c = r, c // rq
    while m > 1:
        r = spf[m] or m
        m //= r
        while m % r == 0:
            m //= r
        while o % r == 0 and pow(e, o // r, p) == 1:
            o //= r
    return o


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


def _slots(limit: int) -> int:
    """Entries in a kept array of a kernel up to limit: the odd q, then the
    powers of 2."""
    return limit // 2 + 1 + limit.bit_length()


# The kept arrays that each quantity fills: L reads O as well.
_FILLS = {"O": ("O",), "L": ("O", "L"), "LL": ("LL",), "lpf": ()}

# The process's survey kernel, which holds its kept arrays.
_kernel: OrderKernel | None = None


def _survey_kernel(x_max: int, e: int, quantity: str) -> OrderKernel:
    """The kernel of a survey up to x_max at base e that reads quantity:
    the process's kernel when it is of base e and of limit min(x_max,
    SPF_TABLE_MAX), or of a larger limit and already holding the arrays
    quantity fills, else a new one of that limit, which replaces it.  An
    array costs 2 bytes per integer up to the kernel's limit, so a larger
    kernel serves a survey only where it allocates none for it."""
    global _kernel
    limit, kernel = min(x_max, SPF_TABLE_MAX), _kernel
    if kernel is None or kernel.e != e or kernel.limit < limit or (
            kernel.limit > limit and not kernel._kept.keys() >= set(_FILLS[quantity])):
        kernel = _kernel = OrderKernel(limit, e)
    return kernel


def _share_arrays(x_max: int, e: int, quantity: str) -> None:
    """Map the kept arrays that quantity fills, in the kernel of a survey
    up to x_max at base e, as anonymous shared memory, with the values the
    kernel already keeps: pool workers forked after this fill one set,
    which this process keeps.  A kernel that does not serve the survey is
    replaced first, so none is inherited or kept beside the set, and a
    kernel that has computed no value has built no table."""
    import mmap
    kernel = _survey_kernel(x_max, e, quantity)
    kept = kernel._kept
    for name in _FILLS[quantity]:
        old = kept.get(name)
        if type(old) is not memoryview:
            shared = kept[name] = memoryview(mmap.mmap(-1, 4 * _slots(kernel.limit))).cast("I")
            if old is None:
                shared[0] = 1
            else:
                shared[:] = old


def _query_kernels(*bases: int) -> list[OrderKernel]:
    """Table-less kernels of the bases for one query, sharing what they
    factor, so that the query factors no value twice."""
    kernels = [OrderKernel(1, e) for e in bases]
    for kernel in kernels:
        kernel._factored = kernels[0]._factored
    return kernels
