"""The package's one threshold rule, prime classification by order size,
and exact inequality bounds.

Every count the package reports turns on an integer q >= 1 against x^t for
an integer x >= 2: the surveys' x^t tests and bin edges (t = k/20), the
class boundaries, and the lambda-lambda, deficiency-bin and one-minus-delta
thresholds, each written as an exponent of x, a Fraction or a formula of
log x.  Each is decided from u = log q / log x, which the caller takes
once per item and shares among its decisions, in three tiers:

    float    |u - t| > guard(t) (1e-9, relative above 1): the float
             comparison decides
    integer  otherwise, for t = a/b with b <= 64: q^b against x^a
    decimal  otherwise: log q / log x against t by t's own formula, both in
             50-digit decimal

The column functions (_above, _above_fixed, and the survey's bin and
lambda-lambda deciders) take the float tier themselves, a column of items
at a time, and call power_compare, which holds the two exact tiers, only
for the items inside the band.  So every decision is the one the exact
tiers would make: exact at ties, deterministic and free of libm's
rounding.  The guard, the decimal context and the denominator limit live
here only.

Primes split into three classes for a base e and a threshold function
eps(x) = min(cap, 2/log log x):

    L:  coprime_order(e, p) <= sqrt(p) / log(p)
    M:  otherwise, coprime_order(e, p) <= p^(1/2 + 2*eps(p))
    H:  the rest

order_classes is that rule, on a column: class-counts calls it on a
survey's chunk, classify_prime on a column of one.

The *_bound functions return exact Fractions: lower bounds on orders that
callers can assert with no floating point involved.
"""

from __future__ import annotations

import decimal
import math
from fractions import Fraction
from itertools import repeat
from types import SimpleNamespace

from ._record import FrozenRecord
from .arith import Factorization, factorize, is_prime
from .orders import OrderKernel, carmichael_lambda, coprime_order
from .arith import lcm as lcm64

_GUARD_REL = 1e-9
_DECIMAL = decimal.Context(prec=50)
_EXACT_DENOM_LIMIT = 64
_ALWAYS_CAPPED_BELOW = 2**64

# the names a threshold formula f(log x, log log x, m) calls on m, for the
# decimal tier; the float tier passes the math module
_DECIMAL_MATH = SimpleNamespace(log=decimal.Decimal.ln, sqrt=decimal.Decimal.sqrt)

EPSILON_FORM = "min(cap, 2/loglog x)"
EPSILON_MIN_X = 16


def guard(t: float) -> float:
    """Half-width of the band around the float exponent t: for |u - t|
    above it the float comparison of u with t decides q against x^t."""
    return _GUARD_REL * (t if t > 1.0 else 1.0)


def power_compare(q: int, x: int, exact: Fraction | Callable) -> int:
    """Sign of q - x^exact for integers q >= 1 and x >= 2, by the exact
    tiers: the callers take the float tier themselves, outside the guard.

    exact is a Fraction or a formula exact(log x, log log x, m) of the
    exponent, written with m.log, m.sqrt and arithmetic operators, so that
    the decimal tier evaluates the very formula that gave the float t.
    """
    rational = isinstance(exact, Fraction)
    if rational and exact.denominator <= _EXACT_DENOM_LIMIT:
        a, b = exact.numerator, exact.denominator
        lhs, rhs = q**b * x**max(-a, 0), x**max(a, 0)
        return (lhs > rhs) - (lhs < rhs)
    with decimal.localcontext(_DECIMAL):
        lnx = decimal.Decimal(x).ln()
        if rational:
            td = decimal.Decimal(exact.numerator) / exact.denominator
        else:
            td = exact(lnx, lnx.ln(), _DECIMAL_MATH)
        d = decimal.Decimal(q).ln() / lnx - td
    return (d > 0) - (d < 0)


def _above(qs, xs, us, ts, exact) -> list[bool]:
    """q > x^exact for each item, given u = log q / log x and t, the float
    value of exact, from the columns us and ts."""
    return [u > t if abs(u - t) > guard(t) else power_compare(q, x, exact) > 0
            for q, x, u, t in zip(qs, xs, us, ts)]


def _above_fixed(qs, xs, us, exact: Fraction, least: int = 1) -> list[bool]:
    """power_compare(q, x, exact) >= least for each item (least 1 for
    q > x^exact, 0 for q >= x^exact), for one exponent: its float t and
    the guard of t are taken once for the column."""
    t = float(exact)
    band = guard(t)
    return [u > t if abs(u - t) > band else power_compare(q, x, exact) >= least
            for q, x, u in zip(qs, xs, us)]


def _sqrt_over_log_exponent(lnx, llx, m):
    """t with x^t = sqrt(x) / log(x)."""
    return (lnx - 2 * llx) / (2 * lnx)


class EpsilonFn(FrozenRecord):
    """eps(x) = min(cap, 2 / log log x), clamped to its x >= 16 domain.

    Monotone non-increasing and eventually o(1).  The lower-bound property
    eps(x) > 1/log log x only kicks in once log log x > 1/cap, that is from
    x = exp(exp(1/cap)) on (astronomical for the default cap).
    """

    cap: float = 0.25

    def __post_init__(self):
        if not 0.0 < self.cap <= 0.5:
            raise ValueError(f"cap must be in (0, 1/2], got {self.cap}")

    def __call__(self, x: float) -> float:
        if x < EPSILON_MIN_X:
            raise ValueError(f"epsilon undefined for x < {EPSILON_MIN_X}, got {x}")
        return min(self.cap, 2.0 / math.log(math.log(x)))

    def is_capped(self, x: float) -> bool:
        return 2.0 / math.log(math.log(max(float(x), float(EPSILON_MIN_X)))) >= self.cap

    def exponent(self, x: float, multiplier: int = 1) -> Fraction:
        """1/2 + multiplier*eps(x), exactly.  Defined while eps sits on its
        cap, which it does at every x below 2^64; off the cap eps is
        irrational, and this raises ValueError."""
        # below 2^64, 2/log log x > 0.527 > 1/2 >= cap: no log needed
        if x >= _ALWAYS_CAPPED_BELOW and not self.is_capped(x):
            raise ValueError(f"eps leaves its cap {self.cap} below x = {x}, "
                             f"so 1/2 + eps is no constant there")
        return Fraction(1, 2) + multiplier * Fraction(str(self.cap))


DEFAULT_EPSILON = EpsilonFn()


def order_classes(qs, ps, us, lnps, m_to_h: Fraction) -> list[str]:
    """The class of each prime p of the column ps whose order is q, the
    same item of qs, given u = log q / log p and log p: L for
    q <= sqrt(p)/log(p), else H for q > p^m_to_h, else M.  m_to_h is
    1/2 + 2*eps(p), one Fraction while eps is on its cap."""
    l_to_m = map(_sqrt_over_log_exponent, lnps, map(math.log, lnps), repeat(math))
    above_l = _above(qs, ps, us, l_to_m, _sqrt_over_log_exponent)
    above_m = _above_fixed(qs, ps, us, m_to_h)
    return ["L" if not l else "H" if m else "M" for l, m in zip(above_l, above_m)]


def classify_prime(p: int, e: int, eps: EpsilonFn = DEFAULT_EPSILON) -> str:
    """Class label "L", "M" or "H" for the prime p under base e.

    Primes dividing e have coprime_order 1 and always land in L.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    o, lnp = coprime_order(e, p), math.log(p)
    return order_classes((o,), (p,), (math.log(o) / lnp,), (lnp,),
                         eps.exponent(p, multiplier=2))[0]


def prime_orders_lower_bound(e: int, n: int) -> Fraction:
    """(lambda(n)/n) * prod over primes p | n of coprime_order(e, p).

    An exact rational lower bound for coprime_order(e, n).
    """
    f = factorize(n)
    prod = math.prod(OrderKernel(1, e).values("O", [(p, p) for p in f.primes()]))
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
    kernel = OrderKernel(1, e)
    oa, ob = (math.lcm(*kernel.values("O", f.powers())) for f in (fa, fb))
    num = oa * ob * carmichael_lambda(fm)
    return Fraction(num, carmichael_lambda(fa) * carmichael_lambda(fb))
