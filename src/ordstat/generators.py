"""Linear congruential and power (x -> x^e) generators and their periods.

Each generator gets two period routes: an analytic one from the order
functions and an empirical one from Brent cycle detection on the actual
orbit, so the formulas can be checked against ground truth over ranges.

For the LCG u -> e*u + b mod n the closed form gives the period exactly as
coprime_order(e, n) only under two coprimality conditions (e - 1 invertible
mod n and the shifted seed coprime to n); unconditionally the period divides
coprime_order(e, n) * gcd(e - 1, n).  For the power generator the eventual
period is coprime_order(e, coprime_order(u0, n)) with no side conditions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .orders import (_order, _order_factors, _split, carmichael_lambda, coprime_order,
                     coprime_part)
from .arith import factorize


@dataclass(frozen=True)
class LcgSpec:
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


@dataclass(frozen=True)
class PowerGenSpec:
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


@dataclass(frozen=True)
class CycleResult:
    """Minimal aperiodic lead-in (tail) and minimal eventual period."""

    tail: int
    period: int


@dataclass(frozen=True)
class LcgPeriod:
    """Analytic LCG period: exact value when the coprimality conditions
    hold (None otherwise), and an unconditional divisor bound."""

    exact: int | None
    divisor_bound: int


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


def lcg_iterate(spec: LcgSpec, i: int) -> int:
    """The i-th term of the orbit; i = 0 is the seed."""
    if i < 0:
        raise ValueError("index must be nonnegative")
    u = spec.u0
    for _ in range(i):
        u = spec.step(u)
    return u


def lcg_period_analytic(spec: LcgSpec) -> LcgPeriod:
    e, b, n, u0 = spec.e, spec.b, spec.n, spec.u0
    o = coprime_order(e, n)
    g = math.gcd(e - 1, n)
    exact = None
    if g == 1:
        inv = pow(e - 1, -1, n)
        if math.gcd((u0 + b * inv) % n, n) == 1:
            exact = o
    return LcgPeriod(exact=exact, divisor_bound=o * g)


def lcg_period_empirical(spec: LcgSpec) -> CycleResult:
    return brent_cycle(spec.step, spec.u0)


def power_period_analytic(spec: PowerGenSpec) -> int:
    """coprime_order(e, coprime_order(u0, n)), reading the inner order's
    factorization off its descent instead of factoring it."""
    inner = _order_factors(spec.u0, factorize(coprime_part(spec.n, spec.u0)).factors)
    return _order(spec.e, inner.items())


def power_period_empirical(spec: PowerGenSpec) -> CycleResult:
    return brent_cycle(spec.step, spec.u0)


def max_seed_period(e: int, n: int) -> int:
    """Power-generator period for a seed of maximal order, i.e.
    coprime_order(e, lambda(n)).  Every prime of lambda(n) is a prime p of n
    or a prime of p - 1, so lambda(n) is split over those, never factored;
    the descent reuses each p - 1 factored here."""
    if n < 2:
        raise ValueError(f"modulus must be >= 2, got {n}")
    f = factorize(n)
    below = {p: factorize(p - 1) for p in f.primes()}
    primes = [r for p, fp in below.items() for r in (p, *fp.primes())]
    return _order(e, _split(carmichael_lambda(f), primes).items(), below)
