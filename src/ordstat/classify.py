"""The package's one threshold rule, its threshold formulas and bin rules,
prime classification by order size, and exact inequality bounds.

Every count the package reports turns on an integer q >= 1 against x^t for
an integer x >= 2: the surveys' x^t tests and bin edges (t = k/20), the
class boundaries, and the lambda-lambda, deficiency-bin and one-minus-delta
thresholds, each written as a Fraction or a formula f(log x, log log x, m)
of log x.  The test and the u bins of ord-n and lambda-n, whose t is one
Fraction 0 < a/b <= 1 with b <= 64 (bracketed), take no logarithm: a
bracket tier decides them over runs of consecutive x, in front of the
integer tier below.

    bracket  over a run x0 <= x < x1, the exact integer roots of each edge
             and of t at x0 and at x1 bound its root at every x of the run
             (ceil_root, _bracket): q at or above the upper bound reaches
             it, q below the lower one does not, and one bisect_right of q
             among the bounds settles the item (_tally_bracketed)

The items between two bounds, and those of a run too short to pay for
its roots, take the integer tier, q^b against x^a.
Every other decision is made from u = log q / log x in three tiers: those
of shifted-prime, high-factor, rsa-pair, class-counts, one-minus-delta and
lambda-lambda, where brackets measured slower than the float tier, and
those of ord-n and lambda-n under an --exponent above 1 or past the
integer tier.

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
calls these, or _tally_bracketed.  So every decision is the one the
exact tiers would make: exact at ties, deterministic and free of libm's
rounding.  The guard, the run length, the decimal context and the
denominator limit live here only.

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
from bisect import bisect_right
from collections import Counter
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
_FLOAT_HOLDS = 2**1000  # below it, float(p) ** (1 / b) is within a few ulps

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


def ceil_root(p: int, b: int) -> int:
    """The least m >= 0 with m^b >= p, for integers p >= 0 and b >= 1,
    exactly at any size.  A float guess of p^(1/b), from p or from its top
    64 bits, is tried first; where it misses, an integer Newton iteration,
    which the guess only starts, finds the floor root."""
    if p < 2 or b == 1:
        return p
    if b == 2:
        return math.isqrt(p - 1) + 1
    if p < _FLOAT_HOLDS:
        x = int(p ** (1 / b))
    else:  # p^(1/b) = (p >> s)^(1/b) * 2^(part/b) * 2^whole, s = whole*b + part
        s = p.bit_length() - 64
        whole, part = divmod(s, b)
        x = int(float(p >> s) ** (1 / b) * 2.0 ** (part / b + 52)) << whole >> 52
    if x**b < p <= (x + 1) ** b:
        return x + 1
    x += (x >> 40) + 1  # above the root by more than the guess's error
    x = ((b - 1) * x + p // x ** (b - 1)) // b  # from any x >= 1: at least the floor root
    while True:  # from above the floor root, each step falls until it is reached
        y = ((b - 1) * x + p // x ** (b - 1)) // b
        if y >= x:
            return x + (x**b < p)
        x = y


# each bin edge k/20 as (a, b, d), reached by q when q^b >= x^a + d
_EDGE_SPECS = tuple((edge.numerator, edge.denominator, 0) for edge in _BIN_EDGES[1:])
_RUN = 64  # a run has _RUN items, or more over which x grows by at most 1/_RUN
_SHORT = 8  # a shorter run, at a chunk's end, costs less exact than its roots
# the bounds 0 and infinity of every root, which settle no item
_UNBOUNDED = ((0,) * (len(_EDGE_SPECS) + 1), (math.inf,) * (len(_EDGE_SPECS) + 1))


@functools.lru_cache(maxsize=4)
def _roots(x: int, specs: tuple) -> tuple[int, ...]:
    """For each (a, b, d) of specs, the root c with q^b >= x^a + d exactly
    when q >= c.  Consecutive runs share their boundary's roots."""
    return tuple(ceil_root(x**a + d, b) for a, b, d in specs)


def _bracket(x0: int, x1: int, specs: tuple) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Bounds below and above each root of specs at every x of x0 <= x <= x1:
    its roots at x0 and at x1, since each x^a + d grows with x; or, for
    fewer than _SHORT items, _UNBOUNDED, which sends each to the exact tier:
    a run's 21 roots cost about as much as five items' exact comparisons."""
    if x1 - x0 < _SHORT:
        return _UNBOUNDED
    return _roots(x0, specs), _roots(x1, specs)


@functools.lru_cache(maxsize=2)
def _outcomes(low, high) -> tuple[tuple, tuple]:
    """The sorted bounds of a run, and for each count of them that an
    item's q reaches, the item's outcome: 2 * bin + (q passes the test) if
    the bounds settle both, else (kmin, kmax, test) for the exact tier: the
    bin is in kmin..kmax, and test is True, False, or None if in doubt.
    low and high list the 20 bin edges' bounds, then the test's."""
    values, tested = [*low, *high], len(low) - 1
    order = sorted(range(len(values)), key=values.__getitem__)
    kmin = kmax = 0
    sure = maybe = False
    outcomes = [0]
    for i in order:
        if i == tested:
            maybe = True
        elif i == 2 * tested + 1:
            sure = True
        elif i < tested:
            kmax += 1
        else:
            kmin += 1
        outcomes.append(2 * kmin + sure if kmin == kmax and sure == maybe
                        else (kmin, kmax, sure if sure == maybe else None))
    return tuple(values[i] for i in order), tuple(outcomes)


def bracketed(exact: Fraction | Callable) -> bool:
    """Whether _tally_bracketed decides q against x^exact: exact is a
    Fraction a/b of the integer tier, b <= 64, and 0 < a/b <= 1, as every
    bin edge is, so that no root it takes exceeds x + 1."""
    return (isinstance(exact, Fraction) and exact.denominator <= _EXACT_DENOM_LIMIT
            and 0 < exact <= 1)


def _tally_bracketed(histogram: list[int], qs, xs, exact: Fraction,
                     ties: bool = False) -> int:
    """Add each item's u bin to histogram, as _tally_u_bins bins it, and
    return how many items have q > x^exact (q >= x^exact if ties), with no
    logarithm, for xs consecutive integers and an exact that is bracketed.
    Each edge x^(k/20) and x^exact grows with x, so over a run of items
    their roots at the run's first x and past its last bound their roots
    at every x of the run: q at or above the upper bound reaches the edge,
    q below the lower one does not, and one bisect_right of q among the
    bounds settles both the bin and the test.  Only an item between two
    bounds, or of a short run, takes the integer tier, q^b against x^a, for
    the edges and the test in doubt."""
    if not xs:
        return 0
    specs = (*_EDGE_SPECS, (exact.numerator, exact.denominator, 0 if ties else 1))
    a, b, d = specs[-1]
    start, stop = xs[0], xs[-1] + 1
    x0, exceed = start, 0
    while x0 < stop:
        x1 = min(x0 + max(_RUN, x0 // _RUN), stop)
        bounds, outcomes = _outcomes(*_bracket(x0, x1, specs))
        run = qs[x0 - start:x1 - start]
        reached = list(map(bisect_right, repeat(bounds), run))
        for at, count in Counter(reached).items():
            outcome = outcomes[at]
            if type(outcome) is int:
                histogram[outcome >> 1] += count
                exceed += count * (outcome & 1)
                continue
            kmin, kmax, test = outcome
            i = -1
            for _ in range(count):
                i = reached.index(at, i + 1)
                q, x = run[i], x0 + i
                k = kmin
                while k < kmax and q ** specs[k][1] >= x ** specs[k][0]:
                    k += 1
                histogram[k] += 1
                exceed += q**b >= x**a + d if test is None else test
        x0 = x1
    return exceed


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
