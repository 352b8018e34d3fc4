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
log(n/q) / ((log log n)^2 log log log n), binned from n = 16 on.  Each test
and bin edge is one call of classify.power_compare, the one threshold rule,
on the item's u: an item takes log q and log x once, and lambda-lambda log
log n once for its test and its bin.  The rsa-pair
q equals ord*(e, lcm(p - 1, l - 1)): the e-free part of an lcm is the lcm of
the e-free parts, and the order modulo an lcm is the lcm of the orders.  With
the default cap 1/4 class-counts finds no H prime by construction, since
ord*(e, p) <= p - 1 < p^(1/2 + 2 * 1/4).  A fixed --exponent replaces t
and lowers the 16 floor to 2; lambda-lambda, one-minus-delta and
class-counts reject it.  eps(x) = min(cap, 2/log log x) never increases, so
1/2 + eps (and class-counts' 1/2 + 2 eps) is one Fraction per config when
eps is on its cap at the largest x judged (x_max, or x_max^2 for pairs).
That holds below 2^64; a config where it fails is rejected.  An x_min
below the floor is taken as given, but one-minus-delta needs n >= 3.

Each process builds, on the first chunk it evaluates, one orders.OrderKernel
for the config's base, and every kind reads q from it.  The kinds over
primes and pairs read it per item.  The four integer kinds read it only at
prime powers: their q is lcm-multiplicative (q(n) is the lcm of q(p^a) over
the prime powers p^a exactly dividing n, and q(p^a) divides q(p^(a+1))), so
a chunk's q values come from a sieve over its prime powers (_sieve_values).
The prime-power values are kept in an array the kernel owns, one per value
function, 2 bytes per integer up to the table's limit like the table; a
survey at another range or base replaces the kernel and frees them all.
Checkpoints are JSON carrying a config digest, the completed chunk list,
and the partially merged result.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import hashlib
import json
import math
import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from operator import floordiv
from typing import Callable, Iterable, Iterator

from .arith import lcm, primes_in_range
from .classify import (DEFAULT_EPSILON, EPSILON_FORM, EpsilonFn, order_class,
                       power_compare)
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

Decision = tuple[bool, int | None, str | None]  # exceeds, histogram bin, class label


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

    @functools.cached_property
    def _threshold_float(self) -> float:
        return float(self._threshold)


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
# statistic bins and the kinds' own tests

_BIN_EDGES = tuple(Fraction(k, 20) for k in range(N_BINS))


def log_ratio_bin(q: int, x: int, u: float) -> int:
    """Bin of u = log(q)/log(x) in the fixed 0.05-wide grid: the largest
    k <= 20 with q >= x^(k/20) (0 if none), so a value on an edge goes to
    the right bin.  Only the edge k nearest u, among 1..20, is in doubt."""
    k = min(max(round(20.0 * u), 1), N_BINS - 1)
    return k - (power_compare(q, x, u, k / 20, _BIN_EDGES[k]) < 0)


def _deficiency_scale(lnx, llx, m):
    """(log log x)^2 log log log x / (20 log x): the exponent step from one
    deficiency bin edge to the next."""
    return llx * llx * m.log(llx) / (20 * lnx)


def _deficiency_edge(k, lnx, llx, m):
    """t with q <= x^t exactly when the deficiency of q is at least k/20
    (the float path, with the scale w at hand, takes 1 - k*w itself)."""
    return 1 - k * _deficiency_scale(lnx, llx, m)


_DEFICIENCY_EDGES = tuple(functools.partial(_deficiency_edge, k) for k in range(N_BINS))


def _deficiency_bin(q: int, x: int, u: float, lnx: float, llx: float) -> int | None:
    """Bin of the deficiency log(x/q) / ((log log x)^2 log log log x)
    = (1 - u) / (20 w), w the scale; None while the denominator is not
    positive (x <= 15)."""
    if llx <= 1.0:
        return None
    w = _deficiency_scale(lnx, llx, math)
    k = min(max(round((1.0 - u) / w), 1), N_BINS - 1)
    return k - (power_compare(q, x, u, 1.0 - k * w, _DEFICIENCY_EDGES[k]) > 0)


def _lamlam_exponent(lnx, llx, m):
    """t with x^t = x / exp((log log x)^3)."""
    return 1 - llx**3 / lnx


def _one_minus_delta_exponent(lnx, llx, m):
    return 1 - m.sqrt(llx / lnx)


def _lamlam_test(cfg: SurveyConfig, q: int, x: int, u: float, lnx: float):
    """q = lambda(lambda(x)) > x / exp((log log x)^3), and the deficiency bin."""
    llx = math.log(lnx)
    exceeds = power_compare(q, x, u, _lamlam_exponent(lnx, llx, math), _lamlam_exponent) > 0
    return exceeds, _deficiency_bin(q, x, u, lnx, llx), None


def _one_minus_delta_test(cfg: SurveyConfig, q: int, x: int, u: float, lnx: float):
    """q > x^(1 - sqrt(log log x / log x)), the exponent taken from x each
    time (the decimal tier recomputes it from x, not from its float)."""
    t = _one_minus_delta_exponent(lnx, math.log(lnx), math)
    return power_compare(q, x, u, t, _one_minus_delta_exponent) > 0, log_ratio_bin(q, x, u), None


def _class_test(cfg: SurveyConfig, q: int, x: int, u: float, lnx: float):
    """classify's L/M/H label, with the config's M/H exponent; H exceeds."""
    label = order_class(q, x, u, lnx, cfg._threshold_float, cfg._threshold)
    return label == "H", log_ratio_bin(q, x, u), label


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
def _rsa_sample_indices(x_max: int, sample_size: int, seed: int) -> range | tuple[int, ...]:
    """Sorted global indices of the pairs to evaluate: range(total) to
    enumerate them all, else a seeded sample of sample_size."""
    total = rsa_pair_count(x_max)
    if total <= sample_size:
        return range(total)
    rng = random.Random(seed)
    return tuple(sorted(rng.sample(range(total), sample_size)))


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
    whose index lies in [lo, hi); value(kernel, item) gives the quantity q
    and the value x it is judged against.  test is the least
    power_compare sign against x^t that exceeds (1 for q > x^t, 0 for
    q >= x^t), with u = log q / log x binned; or the kind's own
    test(cfg, q, x, u, log x) -> (exceeds, bin, label).  exponent is the
    config's t: an int m for 1/2 + m*eps, a Fraction, or None when the own
    test carries its formula.  floor is the lowest item under that t;
    classes are the labels a kind tallies.  A plain slotted class: it is
    built at import and read on every item."""

    __slots__ = ("items", "value", "test", "exponent", "floor", "classes")

    def __init__(self, items: Callable, value: Callable, test: int | Callable,
                 exponent: int | Fraction | None, floor: int = 2,
                 classes: tuple[str, ...] = ()):
        self.items, self.value, self.test = items, value, test
        self.exponent, self.floor, self.classes = exponent, floor, classes


def _int_items(cfg: SurveyConfig, lo: int, hi: int) -> range:
    return range(lo, hi)


def _prime_items(cfg: SurveyConfig, lo: int, hi: int) -> list[int]:
    return primes_in_range(lo, hi)


def _ord_lambda(k: OrderKernel, n: int) -> tuple[int, int]:
    return k.ord(k.lam(n)), n


_KINDS = {
    ORD_N: _Kind(_int_items, lambda k, n: (k.ord(n), n), 1, 1, 16),
    LAMBDA_N: _Kind(_int_items, _ord_lambda, 1, 1, 16),
    ONE_MINUS_DELTA: _Kind(_int_items, _ord_lambda, _one_minus_delta_test, None, 16),
    LAMBDA_LAMBDA: _Kind(_int_items, lambda k, n: (k.lam(k.lam(n)), n), _lamlam_test, None),
    SHIFTED_PRIME: _Kind(_prime_items, lambda k, p: (k.ord(p - 1), p), 0, 1),
    HIGH_FACTOR: _Kind(_prime_items, lambda k, p: (k.lpf(p - 1), p), 1, Fraction(677, 1000)),
    CLASS_COUNTS: _Kind(_prime_items, lambda k, p: (k.ord(p), p), _class_test, 2,
                        classes=("L", "M", "H")),
    RSA_PAIR: _Kind(_pair_items,
                    lambda k, pl: (lcm(k.ord(pl[0] - 1), k.ord(pl[1] - 1)), pl[0] * pl[1]),
                    0, 1),
}


def _value(kind: _Kind, kernel: OrderKernel, item) -> tuple[int, int]:
    """kind.value(kernel, item), naming the item if it overflows."""
    try:
        return kind.value(kernel, item)
    except OverflowError as exc:
        raise OverflowError(f"survey item {item} overflowed: {exc}") from exc


def _sieve_values(kind: _Kind, kernel: OrderKernel, lo: int, hi: int) -> list[int]:
    """q(n) for each n in [lo, hi), for an integer kind.  Its q is the lcm of
    q(p^a) over the prime powers p^a exactly dividing n, and q(p^a) divides
    q(p^(a+1)); so every multiple of each prime power Q = p^k < hi, for the
    primes p <= sqrt(hi - 1), takes the lcm with q(Q) and loses a p from
    its cofactor, which ends as 1 or the one prime r of n above sqrt(hi - 1),
    whose q(r) comes last.  q(Q) is kind.value itself, kept for odd Q in
    the kernel's array for kind.value (lambda-n and one-minus-delta share
    one) and taken anew for the few powers of 2 of each chunk."""
    limit, cache = kernel.limit, kernel.values(kind.value)

    def prime_power_value(Q: int) -> int:
        if Q & 1 and Q <= limit:
            v = cache[Q >> 1]
            if not v:
                v = cache[Q >> 1] = _value(kind, kernel, Q)[0]
            return v
        return _value(kind, kernel, Q)[0]

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


def _decisions(cfg: SurveyConfig, values: Iterable[tuple[int, int]]) -> Iterator[Decision]:
    """(exceeds, histogram bin, class label) for each (q, x) of values: the
    one loop where every decision is made, binding the kind's test and the
    threshold once."""
    test, log = _KINDS[cfg.kind].test, math.log
    if test.__class__ is int:
        t_float, t = cfg._threshold_float, cfg._threshold
        for q, x in values:
            lnx = log(x)
            u = log(q) / lnx
            yield power_compare(q, x, u, t_float, t) >= test, log_ratio_bin(q, x, u), None
    else:
        for q, x in values:
            lnx = log(x)
            yield test(cfg, q, x, log(q) / lnx, lnx)


def evaluate_item(cfg: SurveyConfig, item, kernel: OrderKernel) -> Decision:
    """Evaluate one survey item: (exceeds, histogram bin, class label).

    The item is an integer for all kinds except rsa-pair, where it is the
    prime pair (p, l).  q is read for this item alone, where evaluate_chunk
    reads the integer kinds' q off its sieve; both judge it in _decisions,
    so any count is reproducible item by item.
    """
    return next(_decisions(cfg, (_value(_KINDS[cfg.kind], kernel, item),)))


# ---------------------------------------------------------------------------
# chunked execution

def plan_chunks(cfg: SurveyConfig) -> list[tuple[int, int]]:
    """Half-open chunk ranges covering [low, x_max]."""
    low = cfg.low()
    return [(lo, min(lo + cfg.chunk, cfg.x_max + 1))
            for lo in range(low, cfg.x_max + 1, cfg.chunk)]


def evaluate_chunk(cfg: SurveyConfig, lo: int, hi: int) -> SurveyResult:
    """Evaluate all items of the survey whose index falls in [lo, hi).

    The integer kinds read q off the chunk's sieve, the others per item.
    The order kernel reads the table over [1, min(x_max, SPF_TABLE_MAX)]
    and is built on a process's first chunk, so pool workers build their own
    under any start method, and surveys with the same range and base share
    one."""
    kernel = _order_kernel(min(cfg.x_max, SPF_TABLE_MAX), cfg.e)
    kind = _KINDS[cfg.kind]
    result = empty_result(cfg)
    items = kind.items(cfg, lo, hi)
    if kind.items is _int_items:
        values = zip(_sieve_values(kind, kernel, lo, hi), items)
    else:
        values = (_value(kind, kernel, item) for item in items)
    histogram, counts = result.histogram, result.class_counts
    exceed = 0
    for exceeds, stat_bin, label in _decisions(cfg, values):
        exceed += exceeds
        if stat_bin is not None:
            histogram[stat_bin] += 1
        if label is not None:
            counts[label] += 1
    result.total, result.exceed = len(items), exceed
    return result


def config_digest(cfg: SurveyConfig) -> str:
    payload = {
        "kind": cfg.kind, "e": cfg.e, "x_max": cfg.x_max, "x_min": cfg.low(),
        "epsilon_cap": cfg.epsilon.cap, "epsilon_form": EPSILON_FORM,
        "exponent": cfg.exponent_override, "chunk": cfg.chunk,
        "seed": cfg.seed, "sample_size": cfg.sample_size,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _save_checkpoint(path: str, cfg: SurveyConfig, done: list[tuple[int, int]],
                     partial: SurveyResult) -> None:
    doc = {
        "schema": 1,
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
        json.dump(doc, fh)
    os.replace(tmp, path)


def _load_checkpoint(path: str, cfg: SurveyConfig) -> tuple[list[tuple[int, int]], SurveyResult]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"checkpoint {path} is not valid JSON: {exc}") from exc
    if doc.get("schema") != 1:
        raise CheckpointError(f"checkpoint {path} has unknown schema {doc.get('schema')!r}")
    if doc.get("config_sha256") != config_digest(cfg):
        raise CheckpointError(f"checkpoint {path} belongs to a different survey config")
    try:
        done = [(int(lo), int(hi)) for lo, hi in doc["done"]]
        p = doc["partial"]
        partial = SurveyResult(
            config=cfg, total=int(p["total"]), exceed=int(p["exceed"]),
            histogram=[int(x) for x in p["histogram"]],
            class_counts=p["class_counts"], sampled=bool(p["sampled"]),
        )
        if len(partial.histogram) != N_BINS:
            raise ValueError("bad histogram length")
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint {path} is corrupt: {exc}") from exc
    return done, partial


def run_survey(cfg: SurveyConfig, workers: int = 1,
               checkpoint: str | None = None) -> SurveyResult:
    """Run the configured survey over chunks; the result is a pure function
    of cfg, identical for any worker count, chunking, or resume history."""
    if checkpoint and os.path.exists(checkpoint):
        done, result = _load_checkpoint(checkpoint, cfg)
    else:
        done, result = [], empty_result(cfg)
    done_set = set(done)
    todo = [c for c in plan_chunks(cfg) if c not in done_set]
    los, his = [lo for lo, _ in todo], [hi for _, hi in todo]
    pooled = workers > 1 and len(todo) > 1
    with ProcessPoolExecutor(workers) if pooled else contextlib.nullcontext() as pool:
        parts = (pool.map if pooled else map)(evaluate_chunk, repeat(cfg), los, his)
        for chunk, part in zip(todo, parts):
            result = merge_results(result, part)
            done.append(chunk)
            if checkpoint:
                _save_checkpoint(checkpoint, cfg, done, result)
    return result
