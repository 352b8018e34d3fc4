"""Range surveys of order statistics, with chunked parallel execution.

A survey walks a range of items, reads one order quantity q per item, judges
it against a threshold on a value x, and accumulates counts plus a histogram
of a statistic in 21 bins of width 0.05 over [0, 1.05].  Results form a
commutative monoid over disjoint ranges, so a survey can be split into
chunks, evaluated by any number of workers, checkpointed, and resumed, with
bit-identical output throughout.

Each kind is one _Kind record in _KINDS: its items, q and x, the test, the
exponent t and the lowest item.

    kind             items       q                        x    test      t
    ord-n            n >= 16     ord*(e, n)               n    q >  x^t  1/2 + eps
    lambda-n         n >= 16     ord*(e, lambda(n))       n    q >  x^t  1/2 + eps
    one-minus-delta  n >= 16     ord*(e, lambda(n))       n    q >  x^t  1 - sqrt(log log n / log n)
    lambda-lambda    n           lambda(lambda(n))        n    q >  n / exp((log log n)^3)
    shifted-prime    primes p    ord*(e, p - 1)           p    q >= x^t  1/2 + eps
    high-factor      primes p    largest prime of p - 1   p    q >  x^t  677/1000
    class-counts     primes p    ord*(e, p)               p    class H of classify's L/M/H
    rsa-pair         p < l < 2p  lcm(ord*(e, p - 1), ord*(e, l - 1))  pl  q >= x^t  1/2 + eps

The statistic is u = log(q)/log(x), except for lambda-lambda's deficiency
log(n/q) / ((log log n)^2 log log log n), binned from n = 16 on.  A chunk
is decided as columns: the kind's columns function gives its q and x
columns, every item takes log q and log x once, and one column decider per
test shape (_fixed_exponent, _lambda_lambda, _one_minus_delta, _classes)
tallies the tests and bins into the chunk's result.  Each decision follows
classify's one threshold rule on the item's u: a column function takes the
float tier when |u - t| is above classify.guard(t), and passes only the
items inside that band to classify.power_compare, which holds the exact
tiers.  The x^t tests and one-minus-delta's go through classify's column
functions, class-counts' L/M/H labels through classify.order_classes, the
one class rule that classify_prime also calls; the u bins and
lambda-lambda's test and deficiency bin are decided here, lambda-lambda
taking log log n once for both.  The rsa-pair q equals
ord*(e, lcm(p - 1, l - 1)): the e-free part of an lcm is the lcm of the
e-free parts, and the order modulo an lcm is the lcm of the orders.  With
the default cap 1/4 class-counts finds no H prime by construction, since
ord*(e, p) <= p - 1 < p^(1/2 + 2 * 1/4).  A fixed --exponent replaces t
and lowers the 16 floor to 2; lambda-lambda, one-minus-delta and
class-counts reject it.  eps(x) = min(cap, 2/log log x) never increases, so
1/2 + eps (and class-counts' 1/2 + 2 eps) is one Fraction per config when
eps is on its cap at the largest x judged (x_max, or x_max^2 for pairs).
That holds below 2^64; a config where it fails is rejected.  An x_min
below the floor is taken as given, but one-minus-delta needs n >= 3.

Each process builds, on the first chunk it evaluates, one orders.OrderKernel
for the config's base, and every kind reads q from it, through arrays the
kernel owns that keep each value once computed (OrderKernel.kept), 2 bytes
per integer up to the table's limit like the table.  The kinds over primes
read per prime: class-counts reads ord(e, p) off the kernel's order array
(OrderKernel.prime_order); shifted-prime keeps ord*(e, p - 1) in an array
that rsa-pair shares and reads twice per pair; high-factor reads the table
directly.  The four integer kinds read the kernel only at prime powers:
their q is lcm-multiplicative (q(n) is the lcm of q(p^a) over the prime
powers p^a exactly dividing n, and q(p^a) divides q(p^(a+1))), so a chunk's
q values come from a sieve over its prime powers (_sieve_values), which
keeps q(p^a) in one array per quantity.  A survey at another range or base
replaces the kernel and frees them all.
Checkpoints are JSON carrying a config digest, the completed chunks with
their item counts, and the partially merged result; a checkpoint whose
chunks and counts do not add up is refused, never resumed.  A run writes
its checkpoint after the first chunk, then at most once every
CHECKPOINT_EVERY_S (one second), and once more when it ends or is
interrupted, so a killed run loses at most about a second of chunks.
A process loads only what it runs: the process pool (concurrent.futures,
and with it multiprocessing) at its first pooled run_survey, and hashlib,
for the config digest, at its first checkpoint read or write.  Importing
this module, a one-worker survey without a checkpoint and the CLI's
compute and period commands load neither.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import json
import math
import os
import random
import sys
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from operator import floordiv, truediv
from time import monotonic
from typing import Callable

from .arith import lcm, primes_in_range
from .classify import (DEFAULT_EPSILON, EPSILON_FORM, EpsilonFn, _above, _above_fixed,
                       guard, order_classes, power_compare)
from .orders import SPF_TABLE_MAX, OrderKernel, _order_kernel

ORD_N = "ord-n"
SHIFTED_PRIME = "shifted-prime"
RSA_PAIR = "rsa-pair"
LAMBDA_N = "lambda-n"
LAMBDA_LAMBDA = "lambda-lambda"
HIGH_FACTOR = "high-factor"
ONE_MINUS_DELTA = "one-minus-delta"
CLASS_COUNTS = "class-counts"

KINDS = (ORD_N, SHIFTED_PRIME, RSA_PAIR, LAMBDA_N, LAMBDA_LAMBDA,
         HIGH_FACTOR, ONE_MINUS_DELTA, CLASS_COUNTS)

N_BINS = 21  # 0.05-wide statistic bins covering [0, 1.05]

DEFAULT_SEED = 123456789
DEFAULT_RSA_SAMPLE = 1_000_000

CHECKPOINT_EVERY_S = 1.0  # least time between two checkpoint writes within a run

class CheckpointError(Exception):
    """The checkpoint file is corrupt or belongs to another survey."""


@dataclass(frozen=True)
class SurveyConfig:
    kind: str
    x_max: int
    e: int = 2
    epsilon: EpsilonFn = DEFAULT_EPSILON
    exponent_override: float | None = None
    chunk: int = 10_000
    x_min: int | None = None
    seed: int = DEFAULT_SEED
    sample_size: int = DEFAULT_RSA_SAMPLE

    def __post_init__(self):
        kind = _KINDS.get(self.kind)
        if kind is None:
            raise ValueError(f"unknown survey kind {self.kind!r}")
        if self.e < 2:
            raise ValueError(f"base must be >= 2, got {self.e}")
        if self.chunk < 1:
            raise ValueError(f"chunk must be >= 1, got {self.chunk}")
        if self.sample_size < 1:  # every kind's digest carries it
            raise ValueError(f"sample_size must be >= 1, got {self.sample_size}")
        if self.exponent_override is not None and callable(kind.test):
            raise ValueError(f"--exponent conflicts with kind {self.kind}")
        if self.x_max < self.low():
            raise ValueError(
                f"empty range: x_max = {self.x_max} is below the survey floor "
                f"{self.low()} for kind {self.kind}")
        if self.kind == ONE_MINUS_DELTA and self.low() < 3:  # log log 2 < 0
            raise ValueError(f"kind {self.kind} needs n >= 3, got x_min = {self.x_min}")
        if kind.exponent is not None:
            self._threshold  # computed now: eps off its cap raises ValueError here

    def low(self) -> int:
        """Lowest surveyed value: x_min if given, else the kind's floor,
        which a fixed exponent drops to 2."""
        if self.x_min is not None:
            return max(self.x_min, 2)
        return _KINDS[self.kind].floor if self.exponent_override is None else 2

    @functools.cached_property
    def _threshold(self) -> Fraction:
        """The t of every x^t this config compares with.  1/2 + m*eps is
        taken at the largest x judged, which is its value at every x as long
        as eps is on its cap there (the non-increasing eps is then capped
        over the whole range); EpsilonFn.exponent raises if it is not."""
        if self.exponent_override is not None:
            return Fraction(str(self.exponent_override))
        kind = _KINDS[self.kind]
        if isinstance(kind.exponent, Fraction):
            return kind.exponent
        return self.epsilon.exponent(self.x_max**2 if kind.items is _pair_items
                                     else self.x_max, kind.exponent)


@dataclass
class SurveyResult:
    config: SurveyConfig
    total: int = 0
    exceed: int = 0
    histogram: list[int] = field(default_factory=lambda: [0] * N_BINS)
    class_counts: dict[str, int] | None = None
    sampled: bool = False

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.exceed, self.total) if self.total else Fraction(0)

    def to_dict(self) -> dict:
        cfg = self.config
        pairs = _KINDS[cfg.kind].items is _pair_items
        return {
            "schema": 1,
            "kind": cfg.kind,
            "e": cfg.e,
            "x_max": cfg.x_max,
            "x_min": cfg.low(),
            "epsilon_cap": cfg.epsilon.cap,
            "exponent": cfg.exponent_override,
            "seed": cfg.seed if pairs else None,
            "sample_size": cfg.sample_size if pairs else None,
            "sampled": self.sampled,
            "total": self.total,
            "exceed": self.exceed,
            "fraction": f"{self.exceed}/{self.total}" if self.total else "0/0",
            "class_counts": dict(self.class_counts) if self.class_counts else None,
            "histogram": list(self.histogram),
        }


def empty_result(config: SurveyConfig) -> SurveyResult:
    """The result of no items: zero counts, plus the class tally and the
    sampled flag, which depend on the config alone."""
    kind = _KINDS[config.kind]
    sampled = kind.items is _pair_items and not isinstance(
        _rsa_sample_indices(config.x_max, config.sample_size, config.seed), range)
    return SurveyResult(config=config, class_counts=dict.fromkeys(kind.classes, 0) or None,
                        sampled=sampled)


def merge_results(a: SurveyResult, b: SurveyResult) -> SurveyResult:
    """Combine results from disjoint ranges (associative, commutative)."""
    if a.config != b.config:
        raise ValueError("cannot merge results from different configs")
    counts = None
    if a.class_counts is not None:
        counts = {k: a.class_counts[k] + b.class_counts[k] for k in a.class_counts}
    return SurveyResult(
        config=a.config,
        total=a.total + b.total,
        exceed=a.exceed + b.exceed,
        histogram=[x + y for x, y in zip(a.histogram, b.histogram)],
        class_counts=counts,
        sampled=a.sampled or b.sampled,
    )


# ---------------------------------------------------------------------------
# the column deciders: each tallies a chunk's decisions into its result,
# taking the float tier outside classify.guard's band and power_compare's
# exact tiers inside it

_BIN_EDGES = tuple(Fraction(k, 20) for k in range(N_BINS))
_U_EDGES = tuple(k / 20 for k in range(N_BINS))  # _BIN_EDGES as floats


def _tally_u_bins(histogram: list[int], qs, xs, us) -> None:
    """Add to histogram the bin of each u = log(q)/log(x) in the fixed
    0.05-wide grid: the largest k <= 20 with q >= x^(k/20) (0 if none), so
    a value on an edge goes to the right bin.  Only the edge k nearest u,
    among 1..20, is in doubt.  Every edge is at most 1, where guard(t) is
    guard(1), so one band serves them all."""
    band = guard(1.0)
    for q, x, u in zip(qs, xs, us):
        k = round(20.0 * u)
        if not 0 < k < N_BINS:  # min(max(k, 1), 20) at a fraction of the cost
            k = 1 if k < 1 else N_BINS - 1
        e = _U_EDGES[k]
        below = u < e if abs(u - e) > band else power_compare(q, x, _BIN_EDGES[k]) < 0
        histogram[k - below] += 1


def _fixed_exponent(least: int, cfg: SurveyConfig, result: SurveyResult,
                    qs, xs, us, lnxs) -> None:
    """q against x^t for the config's one t, exceeding when power_compare's
    sign is at least least (1 for q > x^t, 0 for q >= x^t); and the u bins."""
    result.exceed = sum(_above_fixed(qs, xs, us, cfg._threshold, least))
    _tally_u_bins(result.histogram, qs, xs, us)


def _deficiency_scale(lnx, llx, m):
    """(log log x)^2 log log log x / (20 log x): the exponent step from one
    deficiency bin edge to the next."""
    return llx * llx * m.log(llx) / (20 * lnx)


def _deficiency_edge(k, lnx, llx, m):
    """t with q <= x^t exactly when the deficiency of q is at least k/20
    (the float path, with the scale w at hand, takes 1 - k*w itself)."""
    return 1 - k * _deficiency_scale(lnx, llx, m)


_DEFICIENCY_EDGES = tuple(functools.partial(_deficiency_edge, k) for k in range(N_BINS))


def _lamlam_exponent(lnx, llx, m):
    """t with x^t = x / exp((log log x)^3)."""
    return 1 - llx**3 / lnx


def _lambda_lambda(cfg: SurveyConfig, result: SurveyResult, qs, xs, us, lnxs) -> None:
    """q = lambda(lambda(x)) > x / exp((log log x)^3); and the bin of the
    deficiency log(x/q) / ((log log x)^2 log log log x) = (1 - u) / (20 w),
    w the scale, for the x whose denominator is positive (x > 15)."""
    log, histogram, exceed = math.log, result.histogram, 0
    for q, x, u, lnx in zip(qs, xs, us, lnxs):
        llx = log(lnx)
        t = _lamlam_exponent(lnx, llx, math)
        exceed += (u > t if abs(u - t) > guard(t)
                   else power_compare(q, x, _lamlam_exponent) > 0)
        if llx > 1.0:
            w = _deficiency_scale(lnx, llx, math)
            k = round((1.0 - u) / w)
            if not 0 < k < N_BINS:
                k = 1 if k < 1 else N_BINS - 1
            t = 1.0 - k * w
            above = u > t if abs(u - t) > guard(t) else power_compare(
                q, x, _DEFICIENCY_EDGES[k]) > 0
            histogram[k - above] += 1
    result.exceed = exceed


def _one_minus_delta_exponent(lnx, llx, m):
    return 1 - m.sqrt(llx / lnx)


def _one_minus_delta(cfg: SurveyConfig, result: SurveyResult, qs, xs, us, lnxs) -> None:
    """q > x^(1 - sqrt(log log x / log x)), the exponent taken from x each
    time (the decimal tier recomputes it from x, not from its float); and
    the u bins."""
    ts = map(_one_minus_delta_exponent, lnxs, map(math.log, lnxs), repeat(math))
    result.exceed = sum(_above(qs, xs, us, ts, _one_minus_delta_exponent))
    _tally_u_bins(result.histogram, qs, xs, us)


def _classes(cfg: SurveyConfig, result: SurveyResult, qs, xs, us, lnxs) -> None:
    """classify.order_classes' L/M/H labels, the config's t the M/H
    exponent; H exceeds.  And the u bins."""
    labels = order_classes(qs, xs, us, lnxs, cfg._threshold)
    result.class_counts = {label: labels.count(label) for label in result.class_counts}
    result.exceed = result.class_counts["H"]
    _tally_u_bins(result.histogram, qs, xs, us)


# ---------------------------------------------------------------------------
# rsa pair indexing

@functools.lru_cache(maxsize=4)
def _rsa_index(x_max: int) -> tuple[list[int], list[int]]:
    """(primes <= x_max, cumulative pair counts): cum[i] pairs have their
    larger prime among primes[:i].  A pair is p < l < 2p."""
    primes = primes_in_range(2, x_max + 1)
    cum = [0]
    for i, l in enumerate(primes):
        left = bisect.bisect_right(primes, l // 2)
        cum.append(cum[-1] + max(0, i - left))
    return primes, cum


def rsa_pair_count(x_max: int) -> int:
    _, cum = _rsa_index(x_max)
    return cum[-1]


def _rsa_pair_at(primes: list[int], cum: list[int], t: int) -> tuple[int, int]:
    i = bisect.bisect_right(cum, t) - 1
    l = primes[i]
    left = bisect.bisect_right(primes, l // 2)
    return primes[left + (t - cum[i])], l


@functools.lru_cache(maxsize=4)
def _rsa_sample_indices(x_max: int, sample_size: int, seed: int) -> range | array:
    """Sorted global indices of the pairs to evaluate: range(total) to
    enumerate them all, else a seeded sample of sample_size, 8 bytes each."""
    total = rsa_pair_count(x_max)
    if total <= sample_size:
        return range(total)
    rng = random.Random(seed)
    return array("Q", sorted(rng.sample(range(total), sample_size)))


# ---------------------------------------------------------------------------
# the survey kinds

def _pair_items(cfg: SurveyConfig, lo: int, hi: int) -> list[tuple[int, int]]:
    """The pairs (p, l) to evaluate whose larger prime l lies in [lo, hi)."""
    primes, cum = _rsa_index(cfg.x_max)
    indices = _rsa_sample_indices(cfg.x_max, cfg.sample_size, cfg.seed)
    a = bisect.bisect_left(indices, cum[bisect.bisect_left(primes, lo)])
    b = bisect.bisect_left(indices, cum[bisect.bisect_left(primes, hi)])
    return [_rsa_pair_at(primes, cum, t) for t in indices[a:b]]


class _Kind:
    """What sets a survey kind apart.  items(cfg, lo, hi) lists the items
    whose index lies in [lo, hi); reader(kernel) gives the function that
    reads an item's quantity q off the kernel, the value x it is judged
    against being the item (p * l for a pair); columns(kind, cfg, kernel,
    lo, hi) gives the q and x of those items as two columns.  test is the
    least power_compare sign against x^t that exceeds (1 for q > x^t, 0 for
    q >= x^t), with u = log q / log x binned; or the column decider
    test(cfg, result, qs, xs, us, lnxs) of a kind with a test of its own.
    decide is the kind's column decider either way.  exponent is the
    config's t: an int m for 1/2 + m*eps, a Fraction, or None when the own
    test carries its formula.  floor is the lowest item under that t;
    classes are the labels a kind tallies."""

    __slots__ = ("items", "columns", "reader", "test", "decide", "exponent", "floor",
                 "classes")

    def __init__(self, items: Callable, reader: Callable, test: int | Callable,
                 exponent: int | Fraction | None, floor: int = 2,
                 classes: tuple[str, ...] = ()):
        self.items, self.reader, self.test = items, reader, test
        self.columns = _sieved if items is _int_items else _read
        self.decide = test if callable(test) else functools.partial(_fixed_exponent, test)
        self.exponent, self.floor, self.classes = exponent, floor, classes


def _int_items(cfg: SurveyConfig, lo: int, hi: int) -> range:
    return range(lo, hi)


def _prime_items(cfg: SurveyConfig, lo: int, hi: int) -> list[int]:
    return primes_in_range(lo, hi)


def _named(read: Callable) -> Callable:
    """read, its OverflowError naming the item it was reading."""
    def named(item):
        try:
            return read(item)
        except OverflowError as exc:
            raise OverflowError(f"survey item {item} overflowed: {exc}") from exc
    return named


def _x(item) -> int:
    """The value an item is judged against: the item, or p * l for a pair."""
    return item if isinstance(item, int) else item[0] * item[1]


def _sieved(kind: _Kind, cfg: SurveyConfig, kernel: OrderKernel, lo: int, hi: int):
    """An integer kind's columns: q off the chunk's sieve, x the items."""
    return _sieve_values(kind, kernel, lo, hi), kind.items(cfg, lo, hi)


def _read(kind: _Kind, cfg: SurveyConfig, kernel: OrderKernel, lo: int, hi: int):
    """A prime or pair kind's columns, read item by item."""
    items = kind.items(cfg, lo, hi)
    return (list(map(_named(kind.reader(kernel)), items)),
            items if kind.items is _prime_items else list(map(_x, items)))


def _ord_lambda(k: OrderKernel) -> Callable[[int], int]:
    return lambda n: k.ord(k.lam(n))


def _shifted_orders(k: OrderKernel) -> Callable[[int], int]:
    """p -> ord*(e, p - 1), kept per odd prime p in one kernel array that
    shifted-prime and rsa-pair share."""
    return k.kept(_shifted_orders, lambda p: k.ord(p - 1))


def _pair_orders(k: OrderKernel) -> Callable[[tuple[int, int]], int]:
    """(p, l) -> lcm(ord*(e, p - 1), ord*(e, l - 1)), off the shifted orders."""
    shifted = _shifted_orders(k)
    return lambda pl: lcm(shifted(pl[0]), shifted(pl[1]))


_KINDS = {
    ORD_N: _Kind(_int_items, lambda k: k.ord, 1, 1, 16),
    LAMBDA_N: _Kind(_int_items, _ord_lambda, 1, 1, 16),
    ONE_MINUS_DELTA: _Kind(_int_items, _ord_lambda, _one_minus_delta, None, 16),
    LAMBDA_LAMBDA: _Kind(_int_items, lambda k: lambda n: k.lam(k.lam(n)), _lambda_lambda, None),
    SHIFTED_PRIME: _Kind(_prime_items, _shifted_orders, 0, 1),
    HIGH_FACTOR: _Kind(_prime_items, lambda k: lambda p: k.lpf(p - 1), 1, Fraction(677, 1000)),
    CLASS_COUNTS: _Kind(_prime_items, lambda k: k.prime_order, _classes, 2,
                        classes=("L", "M", "H")),
    RSA_PAIR: _Kind(_pair_items, _pair_orders, 0, 1),
}


def _sieve_values(kind: _Kind, kernel: OrderKernel, lo: int, hi: int) -> list[int]:
    """q(n) for each n in [lo, hi), for an integer kind.  Its q is the lcm of
    q(p^a) over the prime powers p^a exactly dividing n, and q(p^a) divides
    q(p^(a+1)); so every multiple of each prime power Q = p^k < hi, for the
    primes p <= sqrt(hi - 1), takes the lcm with q(Q) and loses a p from
    its cofactor, which ends as 1 or the one prime r of n above sqrt(hi - 1),
    whose q(r) comes last.  q(Q) is the kind's reader itself, kept for odd Q
    in the kernel's array for kind.reader (lambda-n and one-minus-delta
    share one) and taken anew for the few powers of 2 of each chunk."""
    prime_power_value = kernel.kept(kind.reader, _named(kind.reader(kernel)))
    size = hi - lo
    qs, cofactor = [1] * size, list(range(lo, hi))
    for p in primes_in_range(2, math.isqrt(hi - 1) + 1):
        Q = p
        while Q < hi:
            first = -lo % Q
            if first < size:
                cofactor[first::Q] = map(floordiv, cofactor[first::Q], repeat(p))
                v = prime_power_value(Q)
                if v > 1:
                    qs[first::Q] = map(math.lcm, qs[first::Q], repeat(v))
            Q *= p
    return [math.lcm(q, prime_power_value(r)) if r > 1 else q for q, r in zip(qs, cofactor)]


def _decide(cfg: SurveyConfig, qs, xs) -> SurveyResult:
    """The result of the items whose q and x are the columns qs and xs: each
    takes log q and log x once, and the kind's decider tallies the rest."""
    result = empty_result(cfg)
    lnxs = list(map(math.log, xs))
    us = list(map(truediv, map(math.log, qs), lnxs))
    _KINDS[cfg.kind].decide(cfg, result, qs, xs, us, lnxs)
    result.total = len(us)
    return result


# ---------------------------------------------------------------------------
# chunked execution

def plan_chunks(cfg: SurveyConfig) -> list[tuple[int, int]]:
    """Half-open chunk ranges covering [low, x_max]."""
    low = cfg.low()
    return [(lo, min(lo + cfg.chunk, cfg.x_max + 1))
            for lo in range(low, cfg.x_max + 1, cfg.chunk)]


def evaluate_chunk(cfg: SurveyConfig, lo: int, hi: int) -> SurveyResult:
    """Evaluate all items of the survey whose index falls in [lo, hi).

    The kind's columns function reads their q and x, and its decider decides
    them all.  The order kernel reads the table over
    [1, min(x_max, SPF_TABLE_MAX)] and is built on a process's first chunk,
    so pool workers build their own under any start method, and surveys
    with the same range and base share one."""
    kernel = _order_kernel(min(cfg.x_max, SPF_TABLE_MAX), cfg.e)
    kind = _KINDS[cfg.kind]
    return _decide(cfg, *kind.columns(kind, cfg, kernel, lo, hi))


def config_digest(cfg: SurveyConfig) -> str:
    """The sha256 of cfg's canonical JSON.  Only checkpoints call this, so
    hashlib loads at a process's first checkpoint read or write."""
    import hashlib
    payload = {
        "kind": cfg.kind, "e": cfg.e, "x_max": cfg.x_max, "x_min": cfg.low(),
        "epsilon_cap": cfg.epsilon.cap, "epsilon_form": EPSILON_FORM,
        "exponent": cfg.exponent_override, "chunk": cfg.chunk,
        "seed": cfg.seed, "sample_size": cfg.sample_size,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _save_checkpoint(path: str, cfg: SurveyConfig, done: list[tuple[int, int, int]],
                     partial: SurveyResult) -> None:
    """Replace the checkpoint at path, by a rename, with the run's state.
    json.dumps encodes in one shot where json.dump streams through the
    pure-Python encoder; both write the same bytes."""
    doc = {
        "schema": 2,
        "config_sha256": config_digest(cfg),
        "done": [list(c) for c in done],
        "partial": {
            "total": partial.total,
            "exceed": partial.exceed,
            "histogram": list(partial.histogram),
            "class_counts": partial.class_counts,
            "sampled": partial.sampled,
        },
    }
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc))
    os.replace(tmp, path)


def _load_checkpoint(path: str, cfg: SurveyConfig
                     ) -> tuple[list[tuple[int, int, int]], SurveyResult]:
    """The done chunks, each (lo, hi, its item count), and the merged result
    of a checkpoint; CheckpointError unless they can be the state of a run
    of cfg, so that a resumed run counts every chunk exactly once."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"checkpoint {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CheckpointError(f"checkpoint {path} is not a JSON object")
    if doc.get("schema") != 2:
        raise CheckpointError(f"checkpoint {path} has unknown schema {doc.get('schema')!r}")
    if doc.get("config_sha256") != config_digest(cfg):
        raise CheckpointError(f"checkpoint {path} belongs to a different survey config")
    try:
        done = [(int(lo), int(hi), int(total)) for lo, hi, total in doc["done"]]
        p = doc["partial"]
        counts = p["class_counts"]
        partial = SurveyResult(
            config=cfg, total=int(p["total"]), exceed=int(p["exceed"]),
            histogram=[int(x) for x in p["histogram"]],
            class_counts=None if counts is None else {k: int(v) for k, v in counts.items()},
            sampled=bool(p["sampled"]),
        )
        if len(partial.histogram) != N_BINS:
            raise ValueError("bad histogram length")
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint {path} is corrupt: {exc}") from exc
    kind, chunks = _KINDS[cfg.kind], [(lo, hi) for lo, hi, _ in done]
    counts = partial.class_counts or {}
    for fault, found in (
            ("a done chunk that is not one of the survey's",
             not set(chunks) <= set(plan_chunks(cfg))),
            ("a chunk done twice", len(set(chunks)) < len(chunks)),
            ("a chunk count other than its range's size",
             kind.items is _int_items and any(n != hi - lo for lo, hi, n in done)),
            ("a total other than the sum of the done chunks' counts",
             partial.total != sum(n for _, _, n in done)),
            ("a negative count", min(partial.exceed, *partial.histogram, *counts.values()) < 0),
            ("more items exceeding or binned than the total",
             max(partial.exceed, sum(partial.histogram)) > partial.total),
            ("class counts other than the kind's", set(counts) != set(kind.classes)
             or bool(counts) and sum(counts.values()) != partial.total),
            ("a sampled flag other than the config's",
             partial.sampled != empty_result(cfg).sampled)):
        if found:
            raise CheckpointError(f"checkpoint {path} is inconsistent: {fault}")
    return done, partial


def __getattr__(name: str):
    """Import the process pool on first use, so that only a pooled survey
    loads multiprocessing; run_survey reads it as a module attribute, where
    a test may replace it."""
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def run_survey(cfg: SurveyConfig, workers: int = 1,
               checkpoint: str | None = None) -> SurveyResult:
    """Run the configured survey over chunks; the result is a pure function
    of cfg, identical for any worker count, chunking, or resume history.
    The pool has no more workers than chunks left to do, and takes them in
    batches of about an eighth of each worker's share.  The checkpoint is
    written after the first chunk, so a bad path fails at once, then at
    most every CHECKPOINT_EVERY_S seconds, and once more when the loop ends
    for any reason, an exception or KeyboardInterrupt included.  When the
    loop stops early, the pool drops the chunks it has not started, so an
    exception surfaces once the running ones end, not after the whole
    survey.  The pool's module is imported when a run first needs more than
    one worker, and hashlib when it first reads or writes a checkpoint."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if checkpoint and os.path.exists(checkpoint):
        done, result = _load_checkpoint(checkpoint, cfg)
    else:
        done, result = [], empty_result(cfg)
    done_set = {(lo, hi) for lo, hi, _ in done}
    todo = [c for c in plan_chunks(cfg) if c not in done_set]
    los, his = [lo for lo, _ in todo], [hi for _, hi in todo]
    workers = min(workers, len(todo))
    pooled = workers > 1
    saved, written = len(done), -math.inf
    with (sys.modules[__name__].ProcessPoolExecutor(workers) if pooled
          else contextlib.nullcontext()) as pool:
        parts = (pool.map(evaluate_chunk, repeat(cfg), los, his,
                          chunksize=max(1, len(todo) // (8 * workers)))
                 if pooled else map(evaluate_chunk, repeat(cfg), los, his))
        try:
            for (lo, hi), part in zip(todo, parts):
                result = merge_results(result, part)
                done.append((lo, hi, part.total))
                if checkpoint and monotonic() - written >= CHECKPOINT_EVERY_S:
                    saved = len(done)  # a write that fails is not tried again
                    _save_checkpoint(checkpoint, cfg, done, result)
                    written = monotonic()
        finally:
            if pooled:  # chunks queued but not started are dropped, not run
                pool.shutdown(cancel_futures=True)
            if checkpoint and len(done) > saved:
                _save_checkpoint(checkpoint, cfg, done, result)
    return result
