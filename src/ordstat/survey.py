"""Range surveys of order statistics, with chunked parallel execution.

A survey walks a range of items, reads one order quantity q per item, judges
it against a threshold on a value x, and accumulates counts plus a histogram
of a statistic in 21 bins of width 0.05 over [0, 1.05].  Results form a
commutative monoid over disjoint ranges, so a survey can be split into
chunks, evaluated by any number of workers, checkpointed, and resumed, with
bit-identical output throughout.

Each kind is one _Kind record in _KINDS: its items, q and x, the test, the
statistic's bin, the exponent t and the lowest item.

    kind             items       q                        x    test      t
    ord-n            n >= 16     ord*(e, n)               n    q >  x^t  1/2 + eps
    lambda-n         n >= 16     ord*(e, lambda(n))       n    q >  x^t  1/2 + eps
    one-minus-delta  n >= 16     ord*(e, lambda(n))       n    q >  x^t  1 - sqrt(log log n / log n)
    lambda-lambda    n           lambda(lambda(n))        n    q >  n / exp((log log n)^3)
    shifted-prime    primes p    ord*(e, p - 1)           p    q >= x^t  1/2 + eps
    high-factor      primes p    largest prime of p - 1   p    q >  x^t  677/1000
    class-counts     primes p    ord*(e, p)               p    class H of classify's L/M/H
    rsa-pair         p < l < 2p  lcm(ord*(e, p - 1), ord*(e, l - 1))  pl  q >= x^t  1/2 + eps

The statistic is log(q)/log(x), except for lambda-lambda's deficiency
log(n/q) / ((log log n)^2 log log log n), binned from n = 16 on.  The rsa-pair
q equals ord*(e, lcm(p - 1, l - 1)): the e-free part of an lcm is the lcm of
the e-free parts, and the order modulo an lcm is the lcm of the orders.  With
the default cap 1/4 class-counts finds no H prime by construction, since
ord*(e, p) <= p - 1 < p^(1/2 + 2 * 1/4).  A fixed --exponent replaces t
and lowers the 16 floor to 2; the last three kinds reject it.  eps(x) =
min(cap, 2/log log x) never increases, so 1/2 + eps is one constant per
config when eps is on its cap at the largest x judged (x_max, or x_max^2 for
pairs).  That holds below 2^64; a config where it fails is rejected.

Each process builds, on the first chunk it evaluates, one orders.OrderKernel
for the config's base, and every kind reads q from it.  Checkpoints are JSON
carrying a config digest, the completed chunk list, and the partially merged
result.
"""

from __future__ import annotations

import bisect
import contextlib
import decimal
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
from typing import Callable

from .arith import lcm, primes_in_range
from .classify import (_GUARD_REL, DEFAULT_EPSILON, EpsilonFn, _decimal_ctx,
                       classify_order_value, power_compare)
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
RSA_FULL_ENUM_LIMIT = 10_000_000


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
        if kind.exponent == "eps" and self._threshold[1] is None:
            raise ValueError(f"eps leaves its cap {self.epsilon.cap} below the largest "
                             f"value judged at x_max = {self.x_max}")

    def low(self) -> int:
        """Lowest surveyed value: x_min if given, else the kind's floor,
        which a fixed exponent drops to 2."""
        if self.x_min is not None:
            return max(self.x_min, 2)
        return _KINDS[self.kind].floor if self.exponent_override is None else 2

    @functools.cached_property
    def _threshold(self) -> tuple[float, Fraction | None]:
        """(t, exact t) for every x^t this config compares with.  1/2 + eps
        is taken at the largest x judged, which is its value at every x as
        long as eps is on its cap there (the non-increasing eps is then
        capped over the whole range); __post_init__ demands that."""
        if self.exponent_override is not None:
            return float(self.exponent_override), Fraction(str(self.exponent_override))
        kind = _KINDS[self.kind]
        if isinstance(kind.exponent, tuple):
            return kind.exponent
        return self.epsilon.exponent(self.x_max**2 if kind.items is _pair_items
                                     else self.x_max)


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
# statistic binning

def log_ratio_bin(q: int, n: int) -> int:
    """Bin index of log(q)/log(n) in the fixed 0.05-wide grid.

    Values on a bin edge (possible: q and n can be exact powers) go to the
    right bin; anything within 1e-9 of an edge is re-decided exactly: the bin
    is the largest b with n^b <= q^20, so it is nearest or nearest - 1.
    """
    if q <= 1:
        return 0
    u = math.log(q) / math.log(n) * 20.0
    nearest = round(u)
    if abs(u - nearest) > _GUARD_REL * max(u, 1.0):
        b = math.floor(u)
    else:
        b = nearest - (q**20 < n**nearest)
    return min(max(b, 0), N_BINS - 1)


def _deficiency_bin(lamlam: int, n: int) -> int | None:
    """Bin of log(n/lamlam) / ((log log n)^2 * log log log n); None while
    the denominator is not positive (n <= 15)."""
    ll = math.log(math.log(n)) if n >= 3 else -1.0
    if ll <= 1.0:
        return None
    denom = ll * ll * math.log(ll)
    u = (math.log(n) - math.log(lamlam)) / denom * 20.0
    nearest = round(u)
    if abs(u - nearest) <= _GUARD_REL * max(abs(u), 1.0):
        ctx = _decimal_ctx()
        lnn = ctx.ln(decimal.Decimal(n))
        lnln = ctx.ln(lnn)
        denom_d = ctx.multiply(ctx.multiply(lnln, lnln), ctx.ln(lnln))
        num_d = ctx.subtract(lnn, ctx.ln(decimal.Decimal(lamlam)))
        ud = ctx.multiply(ctx.divide(num_d, denom_d), decimal.Decimal(20))
        b = int(ud.to_integral_value(rounding=decimal.ROUND_FLOOR))
    else:
        b = math.floor(u)
    return min(max(b, 0), N_BINS - 1)


# ---------------------------------------------------------------------------
# the kinds' own tests

def _lamlam_exceeds(lamlam: int, n: int) -> bool:
    """lambda(lambda(n)) > n / exp((log log n)^3), guarded like the rest."""
    t = n * math.exp(-math.log(math.log(n)) ** 3)
    if abs(lamlam - t) > _GUARD_REL * max(t, 1.0):
        return lamlam > t
    ctx = _decimal_ctx()
    lnln = ctx.ln(ctx.ln(decimal.Decimal(n)))
    rhs = ctx.multiply(decimal.Decimal(n), ctx.exp(-ctx.power(lnln, decimal.Decimal(3))))
    return decimal.Decimal(lamlam) > rhs


def _one_minus_delta_exponent(n: int) -> float:
    return 1.0 - math.sqrt(math.log(math.log(n)) / math.log(n))


def _one_minus_delta_exceeds(o: int, n: int) -> bool:
    """o > n^t for the float exponent t = 1 - sqrt(log log n / log n).

    Inside the guard band the exponent itself is recomputed from n in
    50-digit decimal, so the decision does not depend on libm's rounding
    of t."""
    thr = math.exp(_one_minus_delta_exponent(n) * math.log(n))
    if abs(o - thr) > _GUARD_REL * max(thr, 1.0):
        return o > thr
    ctx = _decimal_ctx()
    lnn = ctx.ln(decimal.Decimal(n))
    t_d = ctx.subtract(decimal.Decimal(1), ctx.sqrt(ctx.divide(ctx.ln(lnn), lnn)))
    return decimal.Decimal(o) > ctx.exp(ctx.multiply(t_d, lnn))


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
    if total <= RSA_FULL_ENUM_LIMIT and total <= sample_size:
        return range(total)
    k = min(sample_size, total)
    rng = random.Random(seed)
    return tuple(sorted(rng.sample(range(total), k)))


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
    and the value x it is judged against; test is the least
    power_compare(q, x, t) sign that exceeds (1 for q > x^t, 0 for
    q >= x^t), or the kind's own test(q, x) -> exceeds; a kind that tallies
    classes has test(q, x, eps) -> label, and its last class exceeds.
    stat(q, x) is the histogram bin or None.  exponent is t: "eps" for
    1/2 + eps, a fixed (float, Fraction), or, with an own test, t(x) or
    None.  floor is the lowest item under that t.  A plain slotted class:
    it is built at import and read on every item."""

    __slots__ = ("items", "value", "test", "stat", "exponent", "floor", "classes")

    def __init__(self, items: Callable, value: Callable, test: int | Callable,
                 stat: Callable, exponent: str | tuple[float, Fraction] | Callable | None,
                 floor: int = 2, classes: tuple[str, ...] = ()):
        self.items, self.value, self.test, self.stat = items, value, test, stat
        self.exponent, self.floor, self.classes = exponent, floor, classes


def _int_items(cfg: SurveyConfig, lo: int, hi: int) -> range:
    return range(lo, hi)


def _prime_items(cfg: SurveyConfig, lo: int, hi: int) -> list[int]:
    return primes_in_range(lo, hi)


_KINDS = {
    ORD_N: _Kind(_int_items, lambda k, n: (k.ord(n), n), 1, log_ratio_bin, "eps", 16),
    LAMBDA_N: _Kind(_int_items, lambda k, n: (k.ord(k.lam(n)), n), 1, log_ratio_bin,
                    "eps", 16),
    ONE_MINUS_DELTA: _Kind(_int_items, lambda k, n: (k.ord(k.lam(n)), n),
                           _one_minus_delta_exceeds, log_ratio_bin,
                           _one_minus_delta_exponent, 16),
    LAMBDA_LAMBDA: _Kind(_int_items, lambda k, n: (k.lam(k.lam(n)), n),
                         _lamlam_exceeds, _deficiency_bin, None),
    SHIFTED_PRIME: _Kind(_prime_items, lambda k, p: (k.ord(p - 1), p), 0, log_ratio_bin,
                         "eps"),
    HIGH_FACTOR: _Kind(_prime_items, lambda k, p: (k.lpf(p - 1), p), 1, log_ratio_bin,
                       (0.677, Fraction(677, 1000))),
    CLASS_COUNTS: _Kind(_prime_items, lambda k, p: (k.ord(p), p), classify_order_value,
                        log_ratio_bin, None, classes=("L", "M", "H")),
    RSA_PAIR: _Kind(_pair_items,
                    lambda k, pl: (lcm(k.ord(pl[0] - 1), k.ord(pl[1] - 1)), pl[0] * pl[1]),
                    0, log_ratio_bin, "eps"),
}


def evaluate_item(cfg: SurveyConfig, item,
                  kernel: OrderKernel) -> tuple[bool, int | None, str | None]:
    """Evaluate one survey item: (exceeds, histogram bin, class label).

    The item is an integer for all kinds except rsa-pair, where it is the
    prime pair (p, l).  This is the single place every exceed decision is
    made, so any count is reproducible item by item.
    """
    kind = _KINDS[cfg.kind]
    q, x = kind.value(kernel, item)
    test = kind.test
    if test.__class__ is int:
        t, exact = cfg._threshold
        return power_compare(q, x, t, exact) >= test, kind.stat(q, x), None
    if kind.classes:
        label = test(q, x, cfg.epsilon)
        return label == kind.classes[-1], kind.stat(q, x), label
    return test(q, x), kind.stat(q, x), None


# ---------------------------------------------------------------------------
# chunked execution

def plan_chunks(cfg: SurveyConfig) -> list[tuple[int, int]]:
    """Half-open chunk ranges covering [low, x_max]."""
    low = cfg.low()
    return [(lo, min(lo + cfg.chunk, cfg.x_max + 1))
            for lo in range(low, cfg.x_max + 1, cfg.chunk)]


def evaluate_chunk(cfg: SurveyConfig, lo: int, hi: int) -> SurveyResult:
    """Evaluate all items of the survey whose index falls in [lo, hi).

    The order kernel reads the table over [1, min(x_max, SPF_TABLE_MAX)]
    and is built on a process's first chunk, so pool workers build their own
    under any start method, and surveys with the same range and base share
    one."""
    kernel = _order_kernel(min(cfg.x_max, SPF_TABLE_MAX), cfg.e)
    result = empty_result(cfg)
    items = _KINDS[cfg.kind].items(cfg, lo, hi)
    histogram, counts = result.histogram, result.class_counts
    exceed = 0
    for item in items:
        try:
            exceeds, stat_bin, label = evaluate_item(cfg, item, kernel)
        except OverflowError as exc:
            raise OverflowError(f"survey item {item} overflowed: {exc}") from exc
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
        "epsilon_cap": cfg.epsilon.cap, "epsilon_form": cfg.epsilon.form,
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
