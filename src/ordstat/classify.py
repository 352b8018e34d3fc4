"""The package's one threshold rule, its threshold formulas and bin rules,
and prime classification by order size.

Every count the package reports turns on an integer q >= 1 against x^t for
an integer x >= 2: the surveys' x^t tests and bin edges (t = k/20), the
class boundaries, and the lambda-lambda, deficiency-bin and one-minus-delta
thresholds, each written as a Fraction or a formula f(log x, log log x, m)
of log x.  Over the integers the test and the bins of ord-n, lambda-n,
one-minus-delta and lambda-lambda take no logarithm per item: a bracket
tier decides them over runs of consecutive x, in front of the tiers below.

    bracket  over a run x0 <= x < x1 each edge and the threshold is
             monotone in x, so its bounds at x0 and at x1 bound it over
             the run (_bracket), and one bisect_right of q among them
             settles the item (_tally_bracketed).  Every edge and
             threshold, a Fraction or a formula, is bounded by
             x^(t -+ guard(t)) from the float t at each run end: the float
             tier's own premise, that the float t is within the guard of t

An item between two bounds is left whole to the tiers below, as are the
items of a short run, of a run where some spec's x^t leaves the float
range, and, where a spec is a formula, of the run below 16 (a run there
ends at 16) or about lambda-lambda's turn at x = 1.43e18 (its threshold
falls before and rises after).  These items, and every item of
shifted-prime, high-factor, rsa-pair and class-counts, whose primes are
too sparse for runs to pay, are decided from u = log q / log x in three
tiers:

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
log x, u and, where a formula threshold reads it, log log x, each once per
item, and passes every loop the same columns, q, x, u, log x and
log log x, of which it reads those it needs: survey._decide for a chunk,
classify_prime for its column of one.  The deficiency bins take one more,
log log log x, inside their scale, and order_classes takes log log p for
the items its L formula reads.  The bracket tier takes its own, once per
run end (_ends).

Primes split into three classes for a base e and a threshold function
eps(x) = min(cap, 2/log log x):

    L:  coprime_order(e, p) <= sqrt(p) / log(p)
    M:  otherwise, coprime_order(e, p) <= p^(1/2 + 2*eps(p))
    H:  the rest

order_classes is that rule, on a column: class-counts calls it on a
survey's chunk, classify_prime on a column of one.  Two pre-tests keep it
off most of the work, both exact: at p >= 3, log p > 1, so an order with
q^2 > p is above sqrt(p) > sqrt(p)/log(p) and not L, and only the other
items take the L formula, and log log p for it; and no order modulo p
exceeds p - 1, so at 1/2 + 2*eps >= 1 (eps on the default cap 1/4) no prime
is H and the M/H test is skipped.
"""

from __future__ import annotations

import decimal
import functools
import math
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from itertools import count, repeat
from types import SimpleNamespace

from ._record import FrozenRecord
from .arith import is_prime
from .orders import coprime_order

_GUARD_REL = 1e-9
_DECIMAL = decimal.Context(prec=50)
_EXACT_DENOM_LIMIT = 64

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


_RUN = 64  # a run has _RUN items, or more over which x grows by at most 1/_RUN
# a shorter run, at a chunk's end, costs less on the per-item path (about
# 0.8 us an item) than the bounds at its new end (about 19 us)
_SHORT = 8
# the bounds 0 and infinity of the 20 edges and the test, which settle no item
_UNBOUNDED = ((0,) * N_BINS, (math.inf,) * N_BINS)
# every formula is monotone in x from _MONOTONE_FROM on, lambda-lambda's
# threshold falling until log x = 41.80763710..., then rising: the runs
# that meet _TURN, about that x, are not bracketed
_MONOTONE_FROM = 16
_TURN = (1.4349e18, 1.4350e18)


@functools.lru_cache(maxsize=4)
def _ends(x: int, specs: tuple) -> tuple[tuple, tuple]:
    """Bounds at x below and above x^t for each spec t: the least integers
    above x^(t - guard(t)) and above x^(t + guard(t)) from the float t, a
    spec's own or its formula's at x, or 0 and infinity where these leave
    the float range.  q at or above the upper bound is above x^t, q below
    the lower one below it, and a tie lies between them.  The deficiency
    edges' t = 1 - k w share one scale w.  Adjacent runs share the bounds
    at their common end."""
    lnx = math.log(x)
    llx = math.log(lnx)
    low, high, w = [], [], None
    for t in specs:
        if getattr(t, "func", None) is _deficiency_edge:  # 1 - k w, one w per end
            w = w or _deficiency_scale(lnx, llx, math)
            t = 1 - t.args[0] * w
        elif callable(t):
            t = t(lnx, llx, math)
        band = guard(t)
        try:
            lo = int(math.exp((t - band) * lnx)) + 1
            hi = int(math.exp((t + band) * lnx)) + 1
        except OverflowError:  # exp past the float range, or int of an infinite guard
            lo, hi = 0, math.inf
        low.append(lo)
        high.append(hi)
    return tuple(low), tuple(high)


def _bracket(x0: int, x1: int, specs: tuple) -> tuple[tuple, tuple]:
    """Bounds below and above x^t for each spec t at every x of
    x0 <= x <= x1, over which each spec is monotone: the lesser of its
    lower bounds at the two ends (_ends) and the greater of its upper ones.
    _UNBOUNDED, which sends each item to the per-item path, for a run of
    fewer than _SHORT items, whose items cost less there than its bounds,
    and, where a spec is a formula, for a run below _MONOTONE_FROM
    or one that meets _TURN."""
    if x1 - x0 < _SHORT or any(map(callable, specs)) and (
            x0 < _MONOTONE_FROM or x0 <= _TURN[1] and _TURN[0] <= x1):
        return _UNBOUNDED
    (low0, high0), (low1, high1) = _ends(x0, specs), _ends(x1, specs)
    return tuple(map(min, low0, low1)), tuple(map(max, high0, high1))


@functools.lru_cache(maxsize=2)
def _outcomes(low, high, descending: bool) -> tuple[tuple, tuple]:
    """The sorted bounds of a run, and for each count of them that an
    item's q reaches, the item's outcome: 2 * bin + (q passes the test) if
    the bounds settle both, else None, for the per-item path.  low and
    high list the 20 edges' bounds, then the test's.  The bin is the count
    of edges reached, or 20 less it if descending."""
    values, tested = [*low, *high], len(low) - 1
    order = sorted(range(len(values)), key=values.__getitem__)
    kmin = kmax = 0
    sure = maybe = False
    outcomes = [0 if not descending else 2 * tested]
    for i in order:
        if i == tested:
            maybe = True
        elif i == 2 * tested + 1:
            sure = True
        elif i < tested:
            kmax += 1
        else:
            kmin += 1
        outcomes.append(2 * (tested - kmin if descending else kmin) + sure
                        if kmin == kmax and sure == maybe else None)
    return tuple(values[i] for i in order), tuple(outcomes)


def bracket_specs(bins: Callable, exact: Fraction | Callable) -> tuple:
    """For _tally_bracketed, the specs of the bin rule's 20 edges, each
    reached by q as the bin moves away from 0, then of the test q > x^exact:
    the float t of each Fraction, and each formula as it is."""
    edges = _DEFICIENCY_EDGES[:0:-1] if bins is _tally_deficiency_bins else _U_EDGES[1:]
    return (*edges, exact if callable(exact) else float(exact))


def _tally_bracketed(histogram: list[int], qs, xs, specs: tuple) -> tuple[int, list[int]]:
    """Add to histogram the bin of each item, as the bin rule of specs bins
    it, for xs consecutive integers, and return how many items pass the
    test, with the positions of the items left to the per-item path.  Over
    a run, q at or above a spec's upper bound reaches it and q below its
    lower one does not, so one bisect_right of q among the bounds settles
    the item; an item between two bounds of an edge or of the test is left
    whole.  A run that starts below _MONOTONE_FROM ends there.  Descending
    edges, the deficiency bins', count down from bin 20."""
    left = []
    if not xs:
        return 0, left
    descending = callable(specs[0])
    start, stop = xs[0], xs[-1] + 1
    x0, exceed = start, 0
    while x0 < stop:
        x1 = min(x0 + max(_RUN, x0 // _RUN), stop)
        if x0 < _MONOTONE_FROM < x1:
            x1 = _MONOTONE_FROM
        bounds, outcomes = _outcomes(*_bracket(x0, x1, specs), descending)
        reached = list(map(bisect_right, repeat(bounds), qs[x0 - start:x1 - start]))
        for at, count in Counter(reached).items():
            outcome = outcomes[at]
            if outcome is not None:
                histogram[outcome >> 1] += count
                exceed += count * (outcome & 1)
                continue
            i = -1
            for _ in range(count):
                i = reached.index(at, i + 1)
                left.append(x0 - start + i)
        x0 = x1
    return exceed, left


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
        if not self.is_capped(x):
            raise ValueError(f"eps leaves its cap {self.cap} below x = {x}, "
                             f"so 1/2 + eps is no constant there")
        return Fraction(1, 2) + multiplier * Fraction(str(self.cap))


DEFAULT_EPSILON = EpsilonFn()


def order_classes(qs, ps, us, lnps, m_to_h: Fraction) -> list[str]:
    """The class of each prime p of the column ps whose order q <= p is the
    same item of qs, given u = log q / log p and log p: L for
    q <= sqrt(p)/log(p), else H for q > p^m_to_h, else M.  m_to_h is
    1/2 + 2*eps(p), one Fraction while eps is on its cap.  At p >= 3,
    where log p > 1, q * q > p puts q above sqrt(p) > sqrt(p)/log(p), so
    only the other items take the L formula, and log log p for it, here.
    No q <= p exceeds p^m_to_h for m_to_h >= 1, so H is tested below 1
    only."""
    labels = ["M"] * len(qs) if m_to_h >= 1 else [
        "H" if h else "M" for h in _above(qs, ps, us, None, None, m_to_h)]
    low = [i for i, q, p in zip(count(), qs, ps) if q * q <= p or p < 3]
    lnls = [lnps[i] for i in low]
    above_l = _above([qs[i] for i in low], [ps[i] for i in low], [us[i] for i in low],
                     lnls, map(math.log, lnls), _sqrt_over_log_exponent)
    for i, above in zip(low, above_l):
        if not above:
            labels[i] = "L"
    return labels


def classify_prime(p: int, e: int, eps: EpsilonFn = DEFAULT_EPSILON) -> str:
    """Class label "L", "M" or "H" for the prime p under base e.

    Primes dividing e have coprime_order 1 and always land in L.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    o, lnp = coprime_order(e, p), math.log(p)
    return order_classes((o,), (p,), (math.log(o) / lnp,), (lnp,),
                         eps.exponent(p, multiplier=2))[0]

