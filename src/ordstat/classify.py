"""The package's one threshold rule, its threshold formulas and bin rules,
prime classification by order size, and exact inequality bounds.

Every count the package reports turns on an integer q >= 1 against x^t for
an integer x >= 2: the surveys' x^t tests and bin edges (t = k/20), the
class boundaries, and the lambda-lambda, deficiency-bin and one-minus-delta
thresholds, each written as a Fraction or a formula f(log x, log log x, m)
of log x.  Each is decided from u = log q / log x in three tiers:

    float    |u - t| > guard(t) (1e-9, relative above 1): the float
             comparison decides
    integer  otherwise, for t = a/b with b <= 64: q^b against x^a
    decimal  otherwise: log q / log x against t by t's own formula, both in
             50-digit decimal

The rule is written here only, in three column loops that take the float
tier themselves, a column of items at a time, and call power_compare,
which holds the two exact tiers, only for the items inside the band:
_above, for one Fraction or formula against every item, and the two bin
rules, which find each item's nearest edge first and decide only that
one.  _tally_u_bins bins u in the 0.05-wide grid of N_BINS edges k/20;
_tally_deficiency_bins bins lambda-lambda's deficiency log(x/q) /
((log log x)^2 log log log x) on edges that are formulas of log x.  A
survey kind names its threshold and its bin rule, and survey._decide
calls these.  So every decision is the one the exact tiers would make:
exact at ties, deterministic and free of libm's rounding.  The guard, the
decimal context and the denominator limit live here only.

The loops take none of the logarithms they compare.  The caller takes
log x, u and, where a formula of it is read, log log x, each once per
item, and passes every loop the same columns, q, x, u, log x and
log log x, of which it reads those it needs: survey._decide for a chunk,
classify_prime for its column of one.  The deficiency bins alone take
one more, log log log x, inside their scale.

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
import functools
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

N_BINS = 21  # 0.05-wide statistic bins covering [0, 1.05]


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


def _above(qs, xs, us, lnxs, llxs, exact: Fraction | Callable,
           ties: bool = False) -> list[bool]:
    """q > x^exact for each item (q >= x^exact if ties), given the columns
    of u = log q / log x, log x and log log x; a Fraction reads neither of
    the last two.  A Fraction's float t and its guard are taken once for
    the column, a formula's for each x."""
    if isinstance(exact, Fraction):
        t = float(exact)
        ts, bands = repeat(t), repeat(guard(t))
    else:
        ts = list(map(exact, lnxs, llxs, repeat(math)))
        bands = map(guard, ts)
    least = 0 if ties else 1
    return [u > t if abs(u - t) > band else power_compare(q, x, exact) >= least
            for q, x, u, t, band in zip(qs, xs, us, ts, bands)]


def _sqrt_over_log_exponent(lnx, llx, m):
    """t with x^t = sqrt(x) / log(x)."""
    return (lnx - 2 * llx) / (2 * lnx)


def _lamlam_exponent(lnx, llx, m):
    """t with x^t = x / exp((log log x)^3)."""
    return 1 - llx**3 / lnx


def _one_minus_delta_exponent(lnx, llx, m):
    """t = 1 - sqrt(log log x / log x)."""
    return 1 - m.sqrt(llx / lnx)


def _deficiency_scale(lnx, llx, m):
    """(log log x)^2 log log log x / (20 log x): the exponent step from one
    deficiency bin edge to the next."""
    return llx * llx * m.log(llx) / (20 * lnx)


def _deficiency_edge(k, lnx, llx, m):
    """t with q <= x^t exactly when the deficiency of q is at least k/20
    (the float path, with the scale w at hand, takes 1 - k*w itself)."""
    return 1 - k * _deficiency_scale(lnx, llx, m)


_BIN_EDGES = tuple(Fraction(k, 20) for k in range(N_BINS))
_U_EDGES = tuple(k / 20 for k in range(N_BINS))  # _BIN_EDGES as floats
_DEFICIENCY_EDGES = tuple(functools.partial(_deficiency_edge, k) for k in range(N_BINS))


def _tally_u_bins(histogram: list[int], qs, xs, us, lnxs, llxs) -> None:
    """Add to histogram the bin of each u = log(q)/log(x) in the fixed
    0.05-wide grid: the largest k <= 20 with q >= x^(k/20) (0 if none), so
    a value on an edge goes to the right bin.  Only the edge k nearest u,
    among 1..20, is in doubt.  Every edge is at most 1, where guard(t) is
    guard(1), so one band serves them all.  It reads q, x and the caller's
    u."""
    band = guard(1.0)
    for q, x, u in zip(qs, xs, us):
        k = round(20.0 * u)
        if not 0 < k < N_BINS:  # min(max(k, 1), 20) at a fraction of the cost
            k = 1 if k < 1 else N_BINS - 1
        e = _U_EDGES[k]
        below = u < e if abs(u - e) > band else power_compare(q, x, _BIN_EDGES[k]) < 0
        histogram[k - below] += 1


def _tally_deficiency_bins(histogram: list[int], qs, xs, us, lnxs, llxs) -> None:
    """Add to histogram the bin of each deficiency log(x/q) / ((log log x)^2
    log log log x) = (1 - u) / (20 w), w the scale, for the x whose
    denominator is positive (x > 15): the largest k <= 20 with
    q <= x^(1 - k w).  Only the edge k nearest the deficiency, among 1..20,
    is in doubt.  It reads the caller's u, log x and log log x, and takes
    log log log x for w itself.  Every edge 1 - k w is below 1, where
    guard(t) is guard(1), so one band serves them all."""
    band = guard(1.0)
    for q, x, u, lnx, llx in zip(qs, xs, us, lnxs, llxs):
        if llx > 1.0:
            w = _deficiency_scale(lnx, llx, math)
            k = round((1.0 - u) / w)
            if not 0 < k < N_BINS:
                k = 1 if k < 1 else N_BINS - 1
            t = 1.0 - k * w
            above = u > t if abs(u - t) > band else power_compare(
                q, x, _DEFICIENCY_EDGES[k]) > 0
            histogram[k - above] += 1


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


def order_classes(qs, ps, us, lnps, llps, m_to_h: Fraction) -> list[str]:
    """The class of each prime p of the column ps whose order is q, the
    same item of qs, given u = log q / log p, log p and log log p: L for
    q <= sqrt(p)/log(p), else H for q > p^m_to_h, else M.  m_to_h is
    1/2 + 2*eps(p), one Fraction while eps is on its cap."""
    above_l = _above(qs, ps, us, lnps, llps, _sqrt_over_log_exponent)
    above_m = _above(qs, ps, us, lnps, llps, m_to_h)
    return ["L" if not l else "H" if m else "M" for l, m in zip(above_l, above_m)]


def classify_prime(p: int, e: int, eps: EpsilonFn = DEFAULT_EPSILON) -> str:
    """Class label "L", "M" or "H" for the prime p under base e.

    Primes dividing e have coprime_order 1 and always land in L.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    o, lnp = coprime_order(e, p), math.log(p)
    return order_classes((o,), (p,), (math.log(o) / lnp,), (lnp,), (math.log(lnp),),
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
