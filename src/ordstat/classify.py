"""Prime classification by order size, and exact inequality bounds.

Primes split into three classes for a base e and a slowly decaying
threshold function eps(x):

    L:  coprime_order(e, p) <= sqrt(p) / log(p)
    M:  otherwise, coprime_order(e, p) <= p^(1/2 + 2*eps(p))
    H:  the rest

Threshold comparisons are float-first with an exactness guard: whenever an
integer lands within 1e-9 relative distance of a threshold, the comparison
is redone either as an exact integer power comparison (rational exponents)
or in 50-digit decimal arithmetic, so classification is deterministic at
boundaries and across platforms.

The *_bound functions return exact Fractions: lower bounds on orders that
callers can assert with no floating point involved.
"""

from __future__ import annotations

import decimal
import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .arith import Factorization, factorize
from .orders import _order, carmichael_lambda, coprime_order
from .arith import lcm as lcm64

_GUARD_REL = 1e-9
_DECIMAL_PREC = 50
_EXACT_DENOM_LIMIT = 64
_ALWAYS_CAPPED_BELOW = 2**64


def _decimal_ctx() -> decimal.Context:
    return decimal.Context(prec=_DECIMAL_PREC)


def power_compare(k: int, base: int, expo: float, exact: Fraction | None = None) -> int:
    """Sign of k - base**expo for integer k, base >= 2.

    Near ties are settled exactly when the exponent is rational with a small
    denominator, otherwise in high-precision decimal.
    """
    t = math.exp(expo * math.log(base))
    if abs(k - t) > _GUARD_REL * max(t, 1.0):
        return -1 if k < t else 1
    if exact is not None and exact.denominator <= _EXACT_DENOM_LIMIT:
        lhs = k**exact.denominator
        rhs = base**exact.numerator
        return (lhs > rhs) - (lhs < rhs)
    ctx = _decimal_ctx()
    if exact is not None:
        de = ctx.divide(decimal.Decimal(exact.numerator), decimal.Decimal(exact.denominator))
    else:
        de = decimal.Decimal(repr(expo))
    rhs_d = ctx.exp(ctx.multiply(de, ctx.ln(decimal.Decimal(base))))
    lhs_d = decimal.Decimal(k)
    return (lhs_d > rhs_d) - (lhs_d < rhs_d)


def sqrt_over_log_compare(k: int, p: int) -> int:
    """Sign of k - sqrt(p)/log(p), with the same near-tie escalation."""
    t = math.sqrt(p) / math.log(p)
    if abs(k - t) > _GUARD_REL * max(t, 1.0):
        return -1 if k < t else 1
    ctx = _decimal_ctx()
    dp = decimal.Decimal(p)
    rhs = ctx.divide(ctx.sqrt(dp), ctx.ln(dp))
    lhs = decimal.Decimal(k)
    return (lhs > rhs) - (lhs < rhs)


@dataclass(frozen=True)
class EpsilonFn:
    """eps(x) = min(cap, 2 / log log x), clamped to its x >= 16 domain.

    Monotone non-increasing and eventually o(1).  The lower-bound property
    eps(x) > 1/log log x only kicks in once log log x > 1/cap, recorded in
    lower_bound_floor (astronomical for the default cap).
    """

    cap: float = 0.25
    form: str = "min(cap, 2/loglog x)"
    min_x: int = field(default=16, repr=False)

    def __post_init__(self):
        if not 0.0 < self.cap <= 0.5:
            raise ValueError(f"cap must be in (0, 1/2], got {self.cap}")

    @functools.cached_property
    def cap_exact(self) -> Fraction:
        return Fraction(str(self.cap))

    @functools.cached_property
    def _capped_exponents(self) -> dict[int, tuple[float, Fraction]]:
        """(1/2 + multiplier*cap, its exact value), filled per multiplier."""
        return {}

    @property
    def lower_bound_floor(self) -> float:
        """Smallest x from which eps(x) > 1/log log x holds."""
        try:
            return math.exp(math.exp(1.0 / self.cap))
        except OverflowError:
            return math.inf

    def __call__(self, x: float) -> float:
        if x < self.min_x:
            raise ValueError(f"epsilon undefined for x < {self.min_x}, got {x}")
        return min(self.cap, 2.0 / math.log(math.log(x)))

    def at(self, x: float) -> float:
        """eps evaluated with the argument clamped up to the domain floor;
        used by surveys that also examine small primes."""
        return self(max(float(x), float(self.min_x)))

    def is_capped(self, x: float) -> bool:
        return 2.0 / math.log(math.log(max(float(x), float(self.min_x)))) >= self.cap

    def exponent(self, x: float, multiplier: int = 1) -> tuple[float, Fraction | None]:
        """1/2 + multiplier*eps(x), plus its exact rational value whenever
        eps is sitting on the cap (always, at desk scale)."""
        # below 2^64, 2/log log x > 0.527 > 1/2 >= cap: no log needed
        if x >= _ALWAYS_CAPPED_BELOW and not self.is_capped(x):
            return 0.5 + multiplier * self.at(x), None
        pair = self._capped_exponents.get(multiplier)
        if pair is None:
            pair = (0.5 + multiplier * self.cap, Fraction(1, 2) + multiplier * self.cap_exact)
            self._capped_exponents[multiplier] = pair
        return pair


DEFAULT_EPSILON = EpsilonFn()


def epsilon_default(x: float, cap: float = 0.25) -> float:
    """min(cap, 2/log log x) on the strict domain x >= 16."""
    return EpsilonFn(cap=cap)(x)


def classify_order_value(o: int, p: int, eps: EpsilonFn = DEFAULT_EPSILON) -> str:
    """Class label for a prime p whose coprime_order value is already known."""
    if sqrt_over_log_compare(o, p) <= 0:
        return "L"
    t, exact = eps.exponent(p, multiplier=2)
    if power_compare(o, p, t, exact) <= 0:
        return "M"
    return "H"


def classify_prime(p: int, e: int, eps: EpsilonFn = DEFAULT_EPSILON) -> str:
    """Class label "L", "M" or "H" for the prime p under base e.

    Primes dividing e have coprime_order 1 and always land in L.
    """
    return classify_order_value(coprime_order(e, p), p, eps)


def prime_orders_lower_bound(e: int, n: int) -> Fraction:
    """(lambda(n)/n) * prod over primes p | n of coprime_order(e, p).

    An exact rational lower bound for coprime_order(e, n).
    """
    f = factorize(n)
    prod = math.prod(_order(e, ((p, 1),)) for p in f.primes())
    return Fraction(carmichael_lambda(f) * prod, n)


def lcm_order_lower_bound(e: int, a: int, b: int) -> Fraction:
    """ord_a * ord_b * lambda(lcm(a,b)) / (lambda(a) * lambda(b)): an exact
    rational lower bound for coprime_order(e, lcm(a, b)).  a and b are
    factored once each; lcm(a, b) takes the larger exponent of each prime."""
    fa, fb = factorize(a), factorize(b)
    merged = dict(fa.factors)
    for p, k in fb.factors:
        merged[p] = max(merged.get(p, 0), k)
    fm = Factorization(lcm64(a, b), tuple(sorted(merged.items())))
    num = _order(e, fa.factors) * _order(e, fb.factors) * carmichael_lambda(fm)
    return Fraction(num, carmichael_lambda(fa) * carmichael_lambda(fb))


def divisor_quotient_bound(e: int, n: int, j: int) -> Fraction:
    """coprime_order(e, n) / j for a divisor j of n: an exact rational
    lower bound for coprime_order(e, n // j)."""
    if j < 1 or n % j != 0:
        raise ValueError(f"{j} does not divide {n}")
    return Fraction(coprime_order(e, n), j)
