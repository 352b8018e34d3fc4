"""Linear congruential and power (x -> x^e) generators, their exact tail and
period in closed form, and Brent cycle detection on the actual orbit, so
the closed forms can be checked against ground truth over ranges.

Both closed forms return a CycleResult, the record brent_cycle returns, for
every parameter and seed.  Each factors the part of n coprime to e (the
LCG) or to the seed (the power generator) once and reads every order off a
table-less OrderKernel; the prime powers of n are combined by lcm for the
period and by max for the tail.

LCG u -> e*u + b mod n from u: with w = (e - 1)u + b, u_(i+k) - u_i =
e^i * w * (e^k - 1)/(e - 1).  So at a prime power p^a of n, with
p^c = p^a / gcd(w, p^a):

    p not dividing e   no tail, and period ord(e, p^c * p^v_p(e - 1)),
                       since (e^k - 1)/(e - 1) has v_p(e^k - 1) - v_p(e - 1)
    p dividing e       period 1, from the least i with p^c | e^i on

Power generator u -> u^e mod n from u: the part n_u of n on the seed's
primes reaches 0 at the least i with n_u | u^(e^i), and stays there.  On
the rest, u^(e^i) repeats as e^i mod o does, o = ord(u, n / n_u): its tail
is the least i with o_e | e^i, o_e the part of o on e's primes, and its
period is ord*(e, o).  o's primes are those of each p and p - 1 over the
primes p of n / n_u, so o is split over them, never factored; the kernels
of the two bases share what they factor, so no p - 1 is factored twice.
"""

from __future__ import annotations

import math
from itertools import count

from ._record import FrozenRecord
from .orders import OrderKernel, _query_kernels, coprime_part
from .arith import factorize


class LcgSpec(FrozenRecord):
    """u_{i+1} = e*u_i + b mod n, starting from u0."""

    e: int
    b: int
    n: int
    u0: int

    def __post_init__(self):
        if self.e < 2 or self.n < 2 or self.b < 0:
            raise ValueError(f"invalid LCG parameters {self}")
        object.__setattr__(self, "b", self.b % self.n)
        object.__setattr__(self, "u0", self.u0 % self.n)

    def step(self, u: int) -> int:
        return (self.e * u + self.b) % self.n


class PowerGenSpec(FrozenRecord):
    """u_{i+1} = u_i^e mod n, starting from u0 (given >= 2, stored mod n)."""

    e: int
    n: int
    u0: int

    def __post_init__(self):
        if self.e < 2 or self.n < 2 or self.u0 < 2:
            raise ValueError(f"invalid power generator parameters {self}")
        object.__setattr__(self, "u0", self.u0 % self.n)

    def step(self, u: int) -> int:
        return pow(u, self.e, self.n)


class CycleResult(FrozenRecord):
    """Minimal aperiodic lead-in (tail) and minimal eventual period."""

    tail: int
    period: int


def brent_cycle(step: Callable[[int], int], x0: int) -> CycleResult:
    """Minimal tail and period of the eventually periodic orbit of step."""
    power = lam = 1
    tortoise = x0
    hare = step(x0)
    while tortoise != hare:
        if power == lam:
            tortoise = hare
            power *= 2
            lam = 0
        hare = step(hare)
        lam += 1
    tortoise = hare = x0
    for _ in range(lam):
        hare = step(hare)
    mu = 0
    while tortoise != hare:
        tortoise = step(tortoise)
        hare = step(hare)
        mu += 1
    return CycleResult(tail=mu, period=lam)


def lcg_period_analytic(spec: LcgSpec) -> CycleResult:
    """Exact tail and period of the LCG's orbit from spec.u0."""
    e, n = spec.e, spec.n
    w = ((e - 1) * spec.u0 + spec.b) % n
    n_c = coprime_part(n, e)
    n_e = n // n_c
    powers = []
    for p, q in factorize(n_c).powers():
        pc = q // math.gcd(w, q)
        if pc > 1:
            x = e - 1
            while x % p == 0:
                x //= p
                pc *= p
            powers.append((p, pc))
    d = n_e // math.gcd(w, n_e)  # the p^c over the primes p of e
    return CycleResult(tail=next(i for i in count() if pow(e, i, d) == 0),
                       period=math.lcm(*OrderKernel(1, e).values("O", powers)))


def power_period_analytic(spec: PowerGenSpec) -> CycleResult:
    """Exact tail and period of the power generator's orbit from spec.u0."""
    e, n, u = spec.e, spec.n, spec.u0
    n_c = coprime_part(n, u)
    inner, outer = _query_kernels(u, e)
    o = {}  # r: r^k exactly dividing o = ord(u, n_c)
    for p, q in factorize(n_c).powers():
        [o_p] = inner.values("O", [(p, q)])
        # o_p divides lambda(q): its primes are p and those of p - 1, which
        # the descent at p has factored unless p - 1 is a power of 2
        for r in (p, *(r for r, _ in inner._prime_powers(p - 1))):
            k = 1
            while o_p % (k * r) == 0:
                k *= r
            o[r] = max(o.get(r, 1), k)
    o_e = math.prod(k for r, k in o.items() if e % r == 0)
    tail = next(i for i in count() if pow(u, e**i, n // n_c) == 0 == pow(e, i, o_e))
    return CycleResult(tail=tail, period=math.lcm(*outer.values("O", o.items())))


def max_seed_period(e: int, n: int) -> int:
    """Power-generator period for a seed of maximal order, i.e.
    coprime_order(e, lambda(n)): the lcm of L(p^a) = ord*(e, lambda(p^a))
    over the prime powers of n, so lambda(n) is never factored."""
    if n < 2:
        raise ValueError(f"modulus must be >= 2, got {n}")
    return math.lcm(*OrderKernel(1, e).values("L", factorize(n).powers()))
