"""Range surveys of order statistics, with chunked parallel execution.

A survey walks a range of items, reads one order quantity q per item, judges
it against a threshold on a value x, and accumulates counts plus a histogram
of a statistic in 21 bins of width 0.05 over [0, 1.05].  Results form a
commutative monoid over disjoint ranges, so a survey can be split into
chunks, evaluated by any number of workers, checkpointed, and resumed, with
bit-identical output throughout.

Each kind is one _Kind record in _KINDS, plain data: a population (every
integer, the primes, or the pairs of primes p < l < 2p), one quantity of
the order kernel (orders.OrderKernel: O, L, LL or lpf) at a prime power,
the threshold, whether q = x^t exceeds, the bin rule, the lowest item and
the classes tallied.  An item's q is the lcm of the quantity over the
item's prime powers.

    kind             items       quantity  q                   x    test      t
    ord-n            n >= 16     O         ord*(e, n)          n    q >  x^t  1/2 + eps
    lambda-n         n >= 16     L         ord*(e, lambda(n))  n    q >  x^t  1/2 + eps
    one-minus-delta  n >= 16     L         ord*(e, lambda(n))  n    q >  x^t  1 - sqrt(log log n / log n)
    lambda-lambda    n           LL        lambda(lambda(n))   n    q >  x^t  1 - (log log n)^3 / log n
    shifted-prime    primes p    L         ord*(e, p - 1)      p    q >= x^t  1/2 + eps
    high-factor      primes p    lpf       largest prime of p - 1  p  q >  x^t  677/1000
    class-counts     primes p    O         ord*(e, p)          p    class H of classify's L/M/H, t = 1/2 + 2 eps
    rsa-pair         p < l < 2p  L         lcm(ord*(e, p - 1), ord*(e, l - 1))  pl  q >= x^t  1/2 + eps

A threshold is the config's t, one Fraction (1/2 + m eps, or a constant),
or a formula of log x from classify.  The statistic binned is
u = log(q)/log(x), except for lambda-lambda's deficiency
log(n/q) / ((log log n)^2 log log log n), binned from n = 16 on.  A span
is decided as columns, by one function, _decide, for every kind: the
kind's population gives its q and x columns.  Over the integers
(ord-n, lambda-n, one-minus-delta and lambda-lambda, under any t),
classify._tally_bracketed decides the test and the bins by brackets over
runs of consecutive n, with no per-item logarithm: each bin edge and the
threshold (classify.bracket_specs), at the run's ends, from its float t
widened by the float tier's guard.  The items those brackets leave, and
every item of the prime kinds and of rsa-pair, take the per-item path:
_decide takes log x and u = log q / log x once per item, and builds the
log log x column only for a formula threshold: one-minus-delta's and
lambda-lambda's.  classify decides the rest from
these columns, where its one threshold rule lives: class-counts' L/M/H
labels through classify.order_classes, the one class rule that
classify_prime also calls, every other test through classify._above, and
the bins through the kind's classify bin rule.  Only two take a logarithm
more: the deficiency bins log log log n, and order_classes log log p for
its L boundary, a formula of it, at the few primes where q^2 <= p (or
p = 2), the only ones that can be L.  _decide builds the span's result once,
with its final fields, and a result, like every record, is never changed
after it is built.  The rsa-pair q equals ord*(e, lcm(p - 1, l - 1)), lambda-n's q at pl: the
e-free part of an lcm is the lcm of the e-free parts, and the order modulo
an lcm is the lcm of the orders.  With the default cap 1/4 class-counts
finds no H prime by construction, since ord*(e, p) <= p - 1 <
p^(1/2 + 2 * 1/4).  A fixed --exponent replaces a one-Fraction t and
lowers the 16 floor to 2; it must be finite and above 0, and the kinds
whose t is a formula, and class-counts, whose t is a class boundary,
reject it.  eps(x) = min(cap,
2/log log x) never increases, so 1/2 + m eps is one Fraction per config
when eps is on its cap at the largest x judged (x_max, or x_max^2 for
pairs).  That holds below 2^64; a config where it fails is rejected, as
is one whose largest x lies past the float range eps is evaluated in.  An
x_min below the floor is taken as given, but one-minus-delta needs n >= 3.

Each process makes, on the first span it evaluates, one orders.OrderKernel
for the config's range and base, and every kind reads its quantity off it a
column at a time (OrderKernel.values).  The kernel keeps O, L and LL, each
in one array, so kinds with one quantity share its array: ord-n and
class-counts share O; lambda-n, one-minus-delta, shifted-prime and
rsa-pair share L (which fills O as well); lambda-lambda keeps LL, and
high-factor keeps none.  It builds its table at the first value it
computes, so a process that reads only kept values builds none.  A prime
is its own prime power, and a pair costs two reads.  For the integers, the
quantity at p^a divides the quantity at p^(a+1), so q values come from a
sieve over the prime powers of a range (_sieve_values).  It pays for each
prime up to sqrt(hi - 1) once per range, and a range pays its decisions'
and its merge's fixed work once, so run_survey evaluates a span of
consecutive chunks left to do as one range: up to SPAN_ITEMS // chunk
chunks of an integer kind, one chunk of any other.  The chunk size sets
the checkpoint granularity alone, not the survey's cost, and no report
changes, since every count is a pure function of the config.  The kernel
serves every later survey at its base up to its range that needs no array
it lacks; any other survey replaces it and frees its arrays with it.
Before a pool starts, run_survey has orders._share_arrays map the arrays
the kind fills as shared memory, with no table built, so forked workers
fill one set and the process keeps every value they filled for its next
survey; workers started by spawn or forkserver fill arrays of their own,
as one worker does.  Every value read is an exact int, so no column overflows.
Checkpoints are JSON carrying a config digest, the completed chunks with
their item counts, and the partially merged result; a checkpoint whose
chunks and counts do not add up is refused, never resumed.  A run writes
its checkpoint after the first span, then at most once every
CHECKPOINT_EVERY_S (one second), and once more when it ends or is
interrupted, so a killed run loses at most about a second of spans.
A process loads only what it runs: the process pool (concurrent.futures,
and with it multiprocessing) and mmap at its first pooled run_survey, and
hashlib, for the config digest, at its first checkpoint read or write.
Importing this module, a one-worker survey without a checkpoint and the
CLI's compute and period commands load none of them, nor dataclasses or
typing.
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
from fractions import Fraction
from itertools import repeat
from operator import floordiv, truediv
from time import monotonic

from ._record import FrozenRecord
from .arith import primes_in_range
from .classify import (DEFAULT_EPSILON, EPSILON_FORM, N_BINS, EpsilonFn, _above,
                       _lamlam_exponent, _one_minus_delta_exponent, _tally_bracketed,
                       _tally_deficiency_bins, _tally_u_bins, bracket_specs, order_classes)
from .orders import OrderKernel, _share_arrays, _survey_kernel

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

DEFAULT_SEED = 123456789
DEFAULT_RSA_SAMPLE = 1_000_000

CHECKPOINT_EVERY_S = 1.0  # least time between two checkpoint writes within a run
SPAN_ITEMS = 8192  # an integer kind evaluates its chunks in spans of at most this many items

class CheckpointError(Exception):
    """The checkpoint file is corrupt or belongs to another survey."""


class SurveyConfig(FrozenRecord):
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
        t = self.exponent_override
        if t is not None and not (math.isfinite(t) and t > 0):  # x^t must grow with x
            raise ValueError(f"exponent_override must be finite and > 0, got {t}")
        if t is not None and (callable(kind.exponent) or kind.classes):
            raise ValueError(f"--exponent conflicts with kind {self.kind}")
        if self.x_max < self.low():
            raise ValueError(
                f"empty range: x_max = {self.x_max} is below the survey floor "
                f"{self.low()} for kind {self.kind}")
        if self.kind == ONE_MINUS_DELTA and self.low() < 3:  # log log 2 < 0
            raise ValueError(f"kind {self.kind} needs n >= 3, got x_min = {self.x_min}")
        self._threshold  # computed now: eps off its cap raises ValueError here

    def low(self) -> int:
        """Lowest surveyed value: x_min if given, else the kind's floor,
        which a fixed exponent drops to 2."""
        if self.x_min is not None:
            return max(self.x_min, 2)
        return _KINDS[self.kind].floor if self.exponent_override is None else 2

    @functools.cached_property
    def _threshold(self) -> Fraction | Callable:
        """The t of every x^t this config tests, or the M/H boundary of its
        classes: a Fraction, or the kind's formula of log x.  1/2 + m*eps is
        taken at the largest x judged, which is its value at every x as long
        as eps is on its cap there (the non-increasing eps is then capped
        over the whole range); EpsilonFn.exponent raises if it is not.  eps
        is evaluated in floats, so an x past their range raises here."""
        if self.exponent_override is not None:
            return Fraction(str(self.exponent_override))
        kind = _KINDS[self.kind]
        if not isinstance(kind.exponent, int):
            return kind.exponent
        pairs = kind.population is _pairs
        x = self.x_max**2 if pairs else self.x_max
        if x > sys.float_info.max:
            raise ValueError(f"x_max = {self.x_max} is past the float range in which eps "
                             f"is evaluated{' (at x_max^2, for pairs)' * pairs}")
        return self.epsilon.exponent(x, kind.exponent)

    @functools.cached_property
    def _specs(self) -> tuple | None:
        """classify.bracket_specs of the kind's bins and threshold for an
        integer kind, read once per config rather than once per chunk."""
        kind = _KINDS[self.kind]
        if kind.population is _integers:
            return bracket_specs(kind.bins, self._threshold)


class SurveyResult(FrozenRecord):
    """A survey's counts over some of its items, a value no code changes
    once built; the histogram defaults to N_BINS zero bins, a fresh list
    for each result, so a result equals by value but has no hash."""

    config: SurveyConfig
    total: int = 0
    exceed: int = 0
    histogram: list[int] | None = None
    class_counts: dict[str, int] | None = None
    sampled: bool = False

    def __post_init__(self):
        if self.histogram is None:
            object.__setattr__(self, "histogram", [0] * N_BINS)

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.exceed, self.total) if self.total else Fraction(0)

    def to_dict(self) -> dict:
        cfg = self.config
        pairs = _KINDS[cfg.kind].population is _pairs
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
    """The result of no items, as _decide makes it: zero counts, the kind's
    classes at zero and the config's sampled flag."""
    return _decide(config, (), ())


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
    """A survey kind as data.  population(quantity, cfg, kernel, lo, hi)
    gives the q and x columns of the items whose index lies in [lo, hi), q
    being the lcm of the kernel's quantity ("O", "L", "LL" or "lpf",
    OrderKernel.values) over an item's prime powers.  exponent is the
    threshold's t: an int m for 1/2 + m*eps, a Fraction, or a formula
    f(log x, log log x, m) of classify's.  ties is whether q = x^t exceeds.
    bins is classify's bin rule bins(histogram, qs, xs, us, lnxs, llxs),
    whose edges, with the threshold, classify.bracket_specs turns into the
    specs of the guard-widened brackets for the integers.
    floor is the lowest item under that t.  classes are the labels the kind
    tallies by classify.order_classes, whose M/H boundary is then x^t and
    whose H exceeds; a kind without them tests q against x^t."""

    __slots__ = ("population", "quantity", "exponent", "ties", "bins", "floor", "classes")

    def __init__(self, population: Callable, quantity: str, exponent: int | Fraction | Callable,
                 ties: bool = False, bins: Callable = _tally_u_bins, floor: int = 2,
                 classes: tuple[str, ...] = ()):
        self.population, self.quantity, self.exponent = population, quantity, exponent
        self.ties, self.bins, self.floor, self.classes = ties, bins, floor, classes


def _integers(quantity: str, cfg: SurveyConfig, kernel: OrderKernel, lo: int, hi: int):
    """Every integer n in [lo, hi): q off the chunk's sieve, x = n."""
    return _sieve_values(quantity, kernel, lo, hi), range(lo, hi)


def _primes(quantity: str, cfg: SurveyConfig, kernel: OrderKernel, lo: int, hi: int):
    """The primes p in [lo, hi), each its own prime power: q is the
    quantity at p, x = p."""
    primes = primes_in_range(lo, hi)
    return kernel.values(quantity, zip(primes, primes)), primes


def _pairs(quantity: str, cfg: SurveyConfig, kernel: OrderKernel, lo: int, hi: int):
    """The pairs (p, l) of _pair_items: q is the lcm of the quantity at p
    and at l, x = p * l."""
    pairs = _pair_items(cfg, lo, hi)
    at_p = kernel.values(quantity, ((p, p) for p, _ in pairs))
    at_l = kernel.values(quantity, ((l, l) for _, l in pairs))
    return list(map(math.lcm, at_p, at_l)), [p * l for p, l in pairs]


_KINDS = {
    ORD_N: _Kind(_integers, "O", 1, floor=16),
    LAMBDA_N: _Kind(_integers, "L", 1, floor=16),
    ONE_MINUS_DELTA: _Kind(_integers, "L", _one_minus_delta_exponent, floor=16),
    LAMBDA_LAMBDA: _Kind(_integers, "LL", _lamlam_exponent, bins=_tally_deficiency_bins),
    SHIFTED_PRIME: _Kind(_primes, "L", 1, ties=True),
    HIGH_FACTOR: _Kind(_primes, "lpf", Fraction(677, 1000)),
    CLASS_COUNTS: _Kind(_primes, "O", 2, classes=("L", "M", "H")),
    RSA_PAIR: _Kind(_pairs, "L", 1, ties=True),
}


def _sieve_values(quantity: str, kernel: OrderKernel, lo: int, hi: int) -> list[int]:
    """The lcm of the kernel's quantity over the prime powers p^a exactly
    dividing n, for each n in [lo, hi).  The quantity at p^a divides it at
    p^(a+1), so every multiple of each prime power Q = p^k < hi, for the
    primes p <= sqrt(hi - 1), takes the lcm with the quantity at Q and loses
    a p from its cofactor, which ends as 1 or the one prime r of n above
    sqrt(hi - 1), whose value comes last.  Both the Q and the r are read as
    one column each."""
    size, powers = hi - lo, []
    for p in primes_in_range(2, math.isqrt(hi - 1) + 1):
        Q = p
        while Q < hi and -lo % Q < size:  # p * Q has a multiple here only if Q has
            powers.append((p, Q))
            Q *= p
    qs, cofactor = [1] * size, list(range(lo, hi))
    for (p, Q), v in zip(powers, kernel.values(quantity, powers)):
        first = -lo % Q
        cofactor[first::Q] = map(floordiv, cofactor[first::Q], repeat(p))
        if v > 1:
            qs[first::Q] = map(math.lcm, qs[first::Q], repeat(v))
    return list(map(math.lcm, qs, kernel.values(quantity, zip(cofactor, cofactor))))


def _decide(cfg: SurveyConfig, qs, xs) -> SurveyResult:
    """The result of the items whose q and x are the columns qs and xs, for
    every kind.  The integers, whose bin edges and threshold
    classify.bracket_specs gives once per config as cfg._specs, are
    decided by classify._tally_bracketed, with no per-item logarithm, by
    brackets from the float t widened by the guard.  The items in doubt
    there, and every item of any other kind, take the per-item path, whose
    logarithms are taken here, each once per item: log x and
    u = log q / log x, and log log x for a formula threshold.  classify
    decides the kind's classes, or q against x^t, and its bins from these
    columns, with the exact tiers inside the guard.  The result is built
    once, whole; its sampled flag depends on the config alone."""
    kind, t, specs = _KINDS[cfg.kind], cfg._threshold, cfg._specs
    histogram, counts, exceed, total = [0] * N_BINS, None, 0, len(qs)
    if specs:
        exceed, left = _tally_bracketed(histogram, qs, xs, specs)
        qs, xs = [qs[i] for i in left], [xs[i] for i in left]
    if not specs or qs:
        lnxs = list(map(math.log, xs))
        llxs = list(map(math.log, lnxs)) if callable(t) else None
        us = list(map(truediv, map(math.log, qs), lnxs))
        kind.bins(histogram, qs, xs, us, lnxs, llxs)
        if kind.classes:
            labels = order_classes(qs, xs, us, lnxs, t)
            counts = {label: labels.count(label) for label in kind.classes}
            exceed = counts["H"]
        else:
            exceed += sum(_above(qs, xs, us, lnxs, llxs, t, kind.ties))
    sampled = kind.population is _pairs and not isinstance(
        _rsa_sample_indices(cfg.x_max, cfg.sample_size, cfg.seed), range)
    return SurveyResult(cfg, total, exceed, histogram, counts, sampled)


# ---------------------------------------------------------------------------
# chunked execution

def plan_chunks(cfg: SurveyConfig) -> list[tuple[int, int]]:
    """Half-open chunk ranges covering [low, x_max]."""
    low = cfg.low()
    return [(lo, min(lo + cfg.chunk, cfg.x_max + 1))
            for lo in range(low, cfg.x_max + 1, cfg.chunk)]


def evaluate_chunk(cfg: SurveyConfig, lo: int, hi: int) -> SurveyResult:
    """Evaluate all items of the survey whose index falls in [lo, hi): the
    kind's population reads their q and x, and _decide decides them all.
    run_survey calls it once per span, on the span's whole range.  The
    order kernel is made on a process's first call, so pool workers make
    their own under any start method, forked ones over the arrays the
    parent mapped."""
    kind = _KINDS[cfg.kind]
    kernel = _survey_kernel(cfg.x_max, cfg.e, kind.quantity)
    return _decide(cfg, *kind.population(kind.quantity, cfg, kernel, lo, hi))


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
             kind.population is _integers and any(n != hi - lo for lo, hi, n in done)),
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


def run_survey(cfg: SurveyConfig, workers: int = 1,
               checkpoint: str | None = None) -> SurveyResult:
    """Run the configured survey over chunks; the result is a pure function
    of cfg, identical for any worker count, chunking, or resume history.
    The chunks left to do go in spans of consecutive chunks: at most
    SPAN_ITEMS // chunk of an integer kind's (one at least), one of any
    other kind's.  A span is evaluated as one range, by one evaluate_chunk
    call, and merged once, and its chunks enter the done list together; a
    chunk in a span of several is an integer kind's, so its count is its
    size.  The pool has no more workers than spans, and takes them in
    batches of about an eighth of each worker's share.  The checkpoint is
    written after the first span, so a bad path fails at once, then at
    most every CHECKPOINT_EVERY_S seconds, and once more when the loop ends
    for any reason, an exception or KeyboardInterrupt included.  When the
    loop stops early, the pool drops the spans it has not started, so an
    exception surfaces once the running ones end, not after the whole
    survey.  Before the pool starts, the kind's kept arrays are mapped as
    shared memory, for forked workers to fill and this process to keep.
    The pool's module and mmap are imported when a run first needs more
    than one worker, and hashlib when it first reads or writes a
    checkpoint."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if checkpoint and os.path.exists(checkpoint):
        done, result = _load_checkpoint(checkpoint, cfg)
    else:
        done, result = [], empty_result(cfg)
    done_set = {(lo, hi) for lo, hi, _ in done}
    per_span = max(1, SPAN_ITEMS // cfg.chunk) if _KINDS[cfg.kind].population is _integers else 1
    spans = []
    for lo, hi in plan_chunks(cfg):
        if (lo, hi) in done_set:
            continue
        if spans and len(spans[-1]) < per_span and spans[-1][-1][1] == lo:
            spans[-1].append((lo, hi))
        else:
            spans.append([(lo, hi)])
    los, his = [span[0][0] for span in spans], [span[-1][1] for span in spans]
    workers = min(workers, len(spans))
    pooled = workers > 1
    saved, written = len(done), -math.inf
    if pooled:  # forked workers fill this process's kept arrays, which it keeps
        from concurrent.futures import ProcessPoolExecutor
        _share_arrays(cfg.x_max, cfg.e, _KINDS[cfg.kind].quantity)
    with ProcessPoolExecutor(workers) if pooled else contextlib.nullcontext() as pool:
        if pooled:
            parts = pool.map(evaluate_chunk, repeat(cfg), los, his,
                             chunksize=max(1, len(spans) // (8 * workers)))
        else:
            parts = map(evaluate_chunk, repeat(cfg), los, his)
        try:
            for span, part in zip(spans, parts):
                result = merge_results(result, part)
                done += [(lo, hi, hi - lo if len(span) > 1 else part.total) for lo, hi in span]
                if checkpoint and monotonic() - written >= CHECKPOINT_EVERY_S:
                    saved = len(done)  # a write that fails is not tried again
                    _save_checkpoint(checkpoint, cfg, done, result)
                    written = monotonic()
        finally:
            if pooled:  # spans queued but not started are dropped, not run
                pool.shutdown(cancel_futures=True)
            if checkpoint and len(done) > saved:
                _save_checkpoint(checkpoint, cfg, done, result)
    return result
