import concurrent.futures
import decimal
import functools
import gc
import hashlib
import importlib.util
import itertools
import json
import math
import multiprocessing
import os
import pickle
import subprocess
import sys
import textwrap
import weakref
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest

import ordstat.classify as classify_mod
import ordstat.orders as orders_mod
import ordstat.survey as survey_mod
from ordstat.arith import Factorization, factorize, primes_in_range
from ordstat.generators import CycleResult, LcgSpec, PowerGenSpec
from ordstat.classify import EpsilonFn, _one_minus_delta_exponent, power_compare
from ordstat.cli import main
from ordstat.orders import OrderKernel, carmichael_lambda, coprime_order, order_profile
from ordstat.survey import (_KINDS, CLASS_COUNTS, KINDS, CheckpointError, HIGH_FACTOR,
                            LAMBDA_LAMBDA, LAMBDA_N, ONE_MINUS_DELTA, ORD_N,
                            RSA_PAIR, SHIFTED_PRIME,
                            SurveyConfig, config_digest, empty_result, evaluate_chunk,
                            merge_results, plan_chunks, rsa_pair_count, run_survey)

GOLDEN = json.loads((Path(__file__).parent / "golden" / "oracle_measurements.json").read_text())


def one_minus_delta_t(x):
    """The one-minus-delta exponent at x, in floats, by the survey's formula."""
    return _one_minus_delta_exponent(math.log(x), math.log(math.log(x)), math)


def threshold_sign(cfg, q, x):
    """The exact sign of q against x^t for the config's t."""
    return power_compare(q, x, cfg._threshold)


def decision(cfg, q, x):
    """(exceeds, histogram bin, class label) of one item whose quantity q
    is judged against x, the bin and the label None where the kind takes
    none: the survey's column decision on a column of one."""
    r = survey_mod._decide(cfg, [q], [x])
    labels = [label for label, n in (r.class_counts or {}).items() if n]
    return (r.exceed == 1, r.histogram.index(1) if any(r.histogram) else None,
            labels[0] if labels else None)


def defined_q(kind, kernel):
    """item -> the kind's q as the survey module's table defines it, from
    the kernel's ord, lam and lpf at the item: no sieve, and no kind's
    column."""
    k = kernel
    return {ORD_N: k.ord, LAMBDA_N: lambda n: k.ord(k.lam(n)),
            ONE_MINUS_DELTA: lambda n: k.ord(k.lam(n)), LAMBDA_LAMBDA: lambda n: k.lam(k.lam(n)),
            SHIFTED_PRIME: lambda p: k.ord(p - 1), HIGH_FACTOR: lambda p: k.lpf(p - 1),
            CLASS_COUNTS: k.ord, RSA_PAIR: lambda pl: lcm(k.ord(pl[0] - 1), k.ord(pl[1] - 1))}[kind]


def item_decision(cfg, item, kernel):
    """decision of a survey item, q read off kernel by the kind's
    definition, x the item or p * l for a pair (p, l)."""
    q = defined_q(cfg.kind, kernel)(item)
    return decision(cfg, q, item if isinstance(item, int) else item[0] * item[1])


_BINNING = SurveyConfig(kind=ORD_N, x_max=2, exponent_override=0.5)


def ratio_bin(q, x):
    """The u bin of q against x, which every kind but lambda-lambda takes;
    it depends on neither the config's range nor its exponent."""
    return decision(_BINNING, q, x)[1]


def brute_coprime_order(e, n):
    m = n
    g = math.gcd(m, e)
    while g > 1:
        while m % g == 0:
            m //= g
        g = math.gcd(m, e)
    target, x, k = 1 % m, e % m, 1
    while x != target:
        x = x * e % m
        k += 1
    return k


def test_ord_n_small_range_matches_enumeration():
    cfg = SurveyConfig(kind=ORD_N, x_max=10, x_min=2, exponent_override=0.5)
    r = run_survey(cfg)
    expected = sum(1 for n in range(2, 11) if brute_coprime_order(2, n) ** 2 > n)
    assert r.total == 9
    assert r.exceed == expected == 5  # includes n = 3: ord*(2,3) = 2 > sqrt(3)
    assert sum(r.histogram) == r.total


def test_ord_n_boundary():
    r = run_survey(SurveyConfig(kind=ORD_N, x_max=16))
    assert r.total == 1


def test_ord_n_rejects_empty_default_range():
    with pytest.raises(ValueError):
        SurveyConfig(kind=ORD_N, x_max=10)


def test_one_minus_delta_needs_n_at_least_3():
    # 1 - sqrt(log log n / log n) is undefined at n = 2, where log log 2 < 0
    with pytest.raises(ValueError, match="one-minus-delta needs n >= 3"):
        SurveyConfig(kind=ONE_MINUS_DELTA, x_max=100, x_min=2)
    r = run_survey(SurveyConfig(kind=ONE_MINUS_DELTA, x_max=100, x_min=3))
    assert r.total == 98 and sum(r.histogram) == 98
    # every other kind still surveys from 2
    for name in KINDS:
        if name != ONE_MINUS_DELTA:
            assert run_survey(SurveyConfig(kind=name, x_max=100, x_min=2)).total > 0, name


def test_shifted_prime_small():
    r = run_survey(SurveyConfig(kind=SHIFTED_PRIME, x_max=10))
    assert r.total == 4  # every prime <= 10 evaluated
    # p = 7 under the default epsilon: ord*(2, 6) = 2 < 7^(3/4)
    exceeds, _, _ = item_decision(SurveyConfig(kind=SHIFTED_PRIME, x_max=10), 7,
                                  OrderKernel(10, 2))
    assert not exceeds


def test_lambda_n_small_range_zero_exceedances():
    cfg = SurveyConfig(kind=LAMBDA_N, x_max=10, x_min=2, exponent_override=0.5)
    r = run_survey(cfg)
    assert (r.total, r.exceed) == (9, 0)


def test_lambda_n_statistic_bin_for_209():
    cfg = SurveyConfig(kind=LAMBDA_N, x_max=209, x_min=209)
    r = run_survey(cfg)
    assert r.total == 1
    stat = math.log(12) / math.log(209)  # ord*(2, lambda(209)) = 12
    assert r.histogram[int(stat / 0.05)] == 1


def test_lambda_lambda_guard_semantics():
    cfg = SurveyConfig(kind=LAMBDA_LAMBDA, x_max=15)
    r = run_survey(cfg)
    assert r.total == 14  # n in [2, 15] all counted
    assert sum(r.histogram) == 0  # deficiency undefined below 16
    cfg = SurveyConfig(kind=LAMBDA_LAMBDA, x_max=300)
    r = run_survey(cfg)
    assert sum(r.histogram) == r.total - 14
    assert carmichael_lambda(factorize(carmichael_lambda(factorize(209)))) == 12


def _logs_taken(monkeypatch, cfg, qs, xs):
    """(math.log calls, result) of _decide on the columns, from cold
    bracket ends; the patches made before it are undone with its own."""
    classify_mod._ends.cache_clear()
    calls, log = [], math.log
    monkeypatch.setattr(math, "log", lambda *args: calls.append(args) or log(*args))
    got = survey_mod._decide(cfg, qs, xs)
    monkeypatch.undo()
    return len(calls), got


def test_decide_takes_each_logarithm_once(monkeypatch):
    # class-counts stays on the float tier: _decide takes log p and log q
    # once per item, and classify log log p, for the L boundary's formula,
    # only at the 7 items with q * q <= p or p = 2 (31, 127, 257, 683, 1103
    # and 1801): at any other p >= 3, q > sqrt(p) > sqrt(p)/log(p)
    cfg = SurveyConfig(kind=CLASS_COUNTS, x_max=2000)
    ps = primes_in_range(2, 2001)
    qs = [coprime_order(2, p) for p in ps]
    want = evaluate_chunk(cfg, 2, 2001)
    count, got = _logs_taken(monkeypatch, cfg, qs, ps)
    low = [p for q, p in zip(qs, ps) if q * q <= p or p < 3]
    assert low == [2, 31, 127, 257, 683, 1103, 1801]
    assert got == want and count == 2 * len(ps) + len(low) == 613


def test_decide_takes_lambda_lambda_logarithms_per_run(monkeypatch):
    # lambda-lambda's threshold and deficiency edges are bracketed over runs
    # of consecutive n: each run end takes log n, log log n and, in the
    # scale that the 20 edges share, log log log n, whatever the run's
    # length.  One run of 64 n at 4096 and one of 15,625 n at 10^6, with
    # q = 1, which the bounds settle (exceeding, in bin 20), take the same
    # 2 * 3 logarithms
    cfg = SurveyConfig(kind=LAMBDA_LAMBDA, x_max=2 * 10**6)
    for start, size in ((4096, 64), (10**6, 15625)):
        count, got = _logs_taken(monkeypatch, cfg, [1] * size, range(start, start + size))
        assert count == 2 * 3, start
        assert got.exceed == got.histogram[20] == size, start
    # on a chunk, 3 for each run end, and the items the bounds leave take
    # the per-item ones: log n, log q and log log n, and log log log n when
    # binned (n >= 16).  The first run, of n < 16, ends at 16 and is left
    # whole, as is the last, of n = 2000 alone; the 31 runs of 64 n between
    # them have 32 ends, and the bounds settle most of n in [16, 66)
    ns = range(2, 2001)
    qs = [carmichael_lambda(factorize(carmichael_lambda(factorize(n)))) for n in ns]
    cfg = SurveyConfig(kind=LAMBDA_LAMBDA, x_max=2000)
    want = evaluate_chunk(cfg, 2, 2001)
    left, tally = [], classify_mod._tally_bracketed

    def spy(*args):
        exceed, positions = tally(*args)
        left.extend(ns[i] for i in positions)
        return exceed, positions

    monkeypatch.setattr(survey_mod, "_tally_bracketed", spy)
    count, got = _logs_taken(monkeypatch, cfg, qs, ns)
    assert got == want and classify_mod._ends.cache_info().misses == 32
    assert set(range(2, 16)) | {2000} <= set(left) and len(left) < len(ns) // 8
    assert len(set(range(16, 66)) & set(left)) < 25
    assert count == 3 * 32 + 3 * len(left) + sum(n >= 16 for n in left)


def test_high_factor_items():
    cfg = SurveyConfig(kind=HIGH_FACTOR, x_max=100)
    exceeds, _, _ = item_decision(cfg, 23, OrderKernel(100, 2))
    assert exceeds  # 22 = 2*11 and 11 > 23^0.677
    exceeds, _, _ = item_decision(cfg, 2, OrderKernel(100, 2))
    assert not exceeds


def test_one_minus_delta_threshold():
    cfg = SurveyConfig(kind=ONE_MINUS_DELTA, x_max=1000)
    r = run_survey(cfg)
    assert r.total == 985
    # threshold is 1 - sqrt(log log x / log x), rising toward 1
    ts = []
    for x in (100, 10**5, 10**9):
        t = one_minus_delta_t(x)
        assert isinstance(t, float)  # irrational: no exact value to compare
        assert t == 1.0 - math.sqrt(math.log(math.log(x)) / math.log(x))
        assert 0.0 < t < 1.0
        ts.append(t)
    assert ts == sorted(ts)


def _one_minus_delta_oracle(o, n):
    """o > n^(1 - sqrt(log log n / log n)) in 80-digit decimal."""
    ctx = decimal.Context(prec=80)
    lnn = ctx.ln(decimal.Decimal(n))
    t = ctx.subtract(decimal.Decimal(1), ctx.sqrt(ctx.divide(ctx.ln(lnn), lnn)))
    return decimal.Decimal(o) > ctx.exp(ctx.multiply(t, lnn))


def test_one_minus_delta_near_ties_follow_the_decimal_oracle():
    def decide(o, n):
        return decision(SurveyConfig(kind=ONE_MINUS_DELTA, x_max=n), o, n)[0]

    # near-ties at survey scale: the float threshold lands within the 1e-9 band
    ties = []
    for n in itertools.count(10**8):
        t = one_minus_delta_t(n)
        thr = math.exp(t * math.log(n))
        if abs(round(thr) - thr) <= 1e-9 * thr:
            ties.append((round(thr), n))
            if len(ties) == 3:
                break
    for o, n in ties:
        for k in (o - 1, o, o + 1):
            assert decide(k, n) == _one_minus_delta_oracle(k, n), (k, n)
    # at n = 10^200 the threshold's relative error from the float exponent
    # (about 1e-14) is far above 50 digits; an o between the true threshold
    # and the one implied by repr() of the float exponent tells them apart
    n = 10**200
    t = one_minus_delta_t(n)
    ctx = decimal.Context(prec=80)
    lnn = ctx.ln(decimal.Decimal(n))
    true_thr = ctx.exp(ctx.multiply(ctx.subtract(
        decimal.Decimal(1), ctx.sqrt(ctx.divide(ctx.ln(lnn), lnn))), lnn))
    repr_thr = ctx.exp(ctx.multiply(decimal.Decimal(repr(t)), lnn))
    assert abs(true_thr - repr_thr) > 10**100
    o = int((true_thr + repr_thr) / 2)
    assert abs(o - math.exp(t * math.log(n))) <= 1e-9 * math.exp(t * math.log(n))
    assert decide(o, n) == _one_minus_delta_oracle(o, n)
    # near 10^30 one step of n moves the threshold by 1e-30 of itself: at
    # the n where it crosses an integer, no float can tell n from n + 1
    for target in (10**22 + 1, 2 * 10**22, 5 * 10**22 + 3):
        n0 = _last_below(10**29, 10**31, lambda n: _one_minus_delta_oracle(target, n))
        for n in (n0, n0 + 1):
            for k in (target - 1, target, target + 1):
                assert decide(k, n) == _one_minus_delta_oracle(k, n), (k, n)


D80 = decimal.Context(prec=80)


def _ln80(v):
    return D80.ln(decimal.Decimal(v))


def _in80(formula):
    """formula run with every decimal operator at 80 digits."""
    @functools.wraps(formula)
    def run(*args):
        with decimal.localcontext(D80):
            return formula(*args)
    return run


def _last_below(lo, hi, below):
    """Largest n in [lo, hi) with below(n), for below monotone from True
    at lo to False at hi."""
    assert below(lo) and not below(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if below(mid) else (lo, mid)
    return lo


def test_power_threshold_near_ties_follow_exact_integers():
    def decide(kind, q, x, **config):
        exceeds, stat_bin, _ = decision(SurveyConfig(kind=kind, x_max=x, **config), q, x)
        return exceeds, stat_bin

    def exact_bin(q, x):  # the largest b <= 20 with x^b <= q^20
        return max(b for b in range(21) if x**b <= q**20)

    # 8 = 16^(3/4) exactly: ord-n asks q > x^t, shifted-prime q >= x^t
    for q in (7, 8, 9):
        assert decide(ORD_N, q, 16) == (q**4 > 16**3, exact_bin(q, 16)), q
        assert decide(SHIFTED_PRIME, q, 16) == (q**4 >= 16**3, exact_bin(q, 16)), q
    assert not decide(ORD_N, 8, 16)[0] and decide(SHIFTED_PRIME, 8, 16)[0]
    assert decide(ORD_N, 8, 16)[1] == 15
    # near 10^30 the integers around x^(3/4) = x^(15/20) are closer to it
    # than any float can tell; t = 3/4 and the bin edge 15/20 are exact
    for x in range(10**30, 10**30 + 4):
        r = int(D80.exp(D80.multiply(decimal.Decimal("0.75"), _ln80(x))))
        for q in (r - 1, r, r + 1, r + 2):
            want = (q**4 > x**3, exact_bin(q, x))
            assert decide(ORD_N, q, x) == want, (q, x)
            assert decide(SHIFTED_PRIME, q, x) == (q**4 >= x**3, want[1]), (q, x)
    # a fixed exponent 0.333 = 333/1000 is past the integer tier: decimal
    for x in range(10**90, 10**90 + 4):
        r = int(D80.exp(D80.multiply(decimal.Decimal("0.333"), _ln80(x))))
        for q in (r - 1, r, r + 1, r + 2):
            exceeds, _ = decide(LAMBDA_N, q, x, exponent_override=0.333)
            assert exceeds == (q**1000 > x**333), (q, x)


def _least_root(x, a, b):
    """The least q with q^b >= x^a: a decimal estimate of x^(a/b), to 80
    digits beyond its integer part, corrected by integer comparison."""
    power = x**a
    context = decimal.Context(prec=80 + len(str(x)) * a // b)
    q = int(context.exp(context.multiply(context.divide(a, b), context.ln(x))))
    while q**b < power:
        q += 1
    while (q - 1) ** b >= power:
        q -= 1
    return q


def test_runs_decide_items_on_and_beside_every_root():
    # columns of consecutive x decided as runs, whose bounds are the float
    # bin edges k/20 and t at the runs' ends widened by the guard: each
    # item's q is the root at its x of one edge or of t (the least q with
    # q^b >= x^a), or one beside it, so a bound off by one at either end of
    # a run, or not widened where floats are coarse (10^30), moves a bin or
    # the test.  Near 10^300, x^(3/2) is past the float range: t's bounds
    # are 0 and infinity, and every item takes the per-item path
    assert classify_mod._ends(10**300, (1.5,)) == ((0,), (math.inf,))
    for start, (a, b) in ((16, (3, 4)), (5000, (3, 4)), (10**30, (3, 4)), (10**300, (3, 2))):
        cfg = SurveyConfig(kind=ORD_N, x_max=100, exponent_override=a / b)
        xs = range(start, start + 130)  # runs of 64 items, of x // 64, and one
        powers = [[x**k for k in range(21)] for x in xs]
        for c, d in (*((k, 20) for k in range(1, 21)), (a, b)):
            roots = [_least_root(x, c, d) for x in xs]
            for delta in (-1, 0, 1):
                qs = [max(r + delta, 1) for r in roots]
                histogram = [0] * 21
                for q, xk in zip(qs, powers):
                    q20 = q**20
                    histogram[max(k for k in range(21) if xk[k] <= q20)] += 1
                got = survey_mod._decide(cfg, qs, xs)
                assert got.histogram == histogram, (start, c, d, delta)
                assert got.exceed == sum(q**b > x**a for q, x in zip(qs, xs)), (start, c, d, delta)


@_in80
def _formula_edges(n):
    """At n, in 80-digit decimal: lambda-lambda's threshold n/exp((log log
    n)^3), its 20 deficiency edges n^(1 - k w(n)) for k = 1..20, and
    one-minus-delta's threshold n^(1 - sqrt(log log n / log n))."""
    ln = _ln80(n)
    ll = ln.ln()
    w = ll * ll * ll.ln() / (20 * ln)
    return {"lambda-lambda": n * (-ll**3).exp(),
            **{k: ((1 - k * w) * ln).exp() for k in range(1, 21)},
            "one-minus-delta": ((1 - (ll / ln).sqrt()) * ln).exp()}


@_in80
def _lamlam_turn():
    """The n where lambda-lambda's log threshold y - (log y)^3, y = log n,
    turns from falling to rising: the root of y = 3 (log y)^2 near 41.8."""
    y = decimal.Decimal("41.8")
    for _ in range(20):
        y -= (y - 3 * y.ln() ** 2) / (1 - 6 * y.ln() / y)
    return y.exp()


def test_runs_decide_formula_items_on_and_beside_every_edge(monkeypatch):
    # columns of consecutive n decided as runs, whose bounds are the float
    # formulas at the runs' ends widened by the guard: each item's q is
    # floor(edge) - 1, floor(edge) or floor(edge) + 1 of one formula edge at
    # its n, the edge taken in 80-digit decimal, so a bound off by one at
    # either end of a run, or not widened where floats are coarse (10^20),
    # moves a bin or the test.  The column about lambda-lambda's turning
    # point is left whole to the per-item path, and only that one
    turn = _lamlam_turn()
    assert classify_mod._TURN[0] < turn < classify_mod._TURN[1]
    left, tally = [], classify_mod._tally_bracketed

    def spy(*args):
        exceed, positions = tally(*args)
        left.append(len(positions))
        return exceed, positions

    monkeypatch.setattr(survey_mod, "_tally_bracketed", spy)
    lamlam, omd = (SurveyConfig(kind=kind, x_max=100) for kind in (LAMBDA_LAMBDA, ONE_MINUS_DELTA))
    for start in (16, 5000, 10**12, int(turn) - 65, 10**20):
        xs = range(start, start + 130)
        # q <= edge and q > edge read the same on the edge's floor
        edges = [{name: int(edge) for name, edge in _formula_edges(x).items()} for x in xs]
        left.clear()
        # past 10^12 every item beside an edge is a near-tie for the float
        # tier, decided in decimal: a fifth of the edges keeps the cost down
        names = list(edges[0]) if start < 10**12 else [LAMBDA_LAMBDA, 1, 7, 13, 20, ONE_MINUS_DELTA]
        for name in names:
            for delta in (-1, 0, 1):
                qs = [max(edge[name] + delta, 1) for edge in edges]
                got = survey_mod._decide(lamlam, qs, xs)
                exceed = sum(q > e[LAMBDA_LAMBDA] for q, e in zip(qs, edges))
                assert got.exceed == exceed, (start, name, delta)
                histogram = [0] * 21
                for q, e in zip(qs, edges):
                    histogram[sum(q <= e[k] for k in range(1, 21))] += 1
                assert got.histogram == histogram, (start, name, delta)
                if name == ONE_MINUS_DELTA:
                    got = survey_mod._decide(omd, qs, xs)
                    assert got.exceed == sum(q > e[name] for q, e in zip(qs, edges)), (start, delta)
                    histogram = [0] * 21
                    for q, x in zip(qs, xs):
                        histogram[max(k for k in range(21) if x**k <= q**20)] += 1
                    assert got.histogram == histogram, (start, delta)
        # each _decide leaves all 130 items about the turning point; elsewhere
        # the bounds settle some
        if start < turn < start + 130:
            assert set(left) == {130}, start
        else:
            assert min(left) < 130, start


def test_class_boundaries_near_ties():
    def label(o, p, cap=0.25):  # class-counts' label for the order o at p
        return decision(SurveyConfig(kind=CLASS_COUNTS, x_max=p, epsilon=EpsilonFn(cap)),
                        o, p)[2]

    # M/H: 128 = 1024^(7/10) exactly at cap 1/10, and M takes the tie
    assert [label(o, 1024, 0.1) for o in (127, 128, 129)] == ["M", "M", "H"]
    for p in range(10**30, 10**30 + 4):  # o^10 against p^7 past float precision
        r = int(D80.exp(D80.multiply(decimal.Decimal("0.7"), _ln80(p))))
        for o in (r - 1, r, r + 1, r + 2):
            assert label(o, p, 0.1) == ("M" if o**10 <= p**7 else "H"), (o, p)

    # L/M: o against sqrt(p)/log(p), at the p where that crosses an integer
    @_in80
    def sqrt_over_log(p):
        return decimal.Decimal(p).sqrt() / _ln80(p)

    for target in (10**13, 10**13 + 7, 3 * 10**13):
        p0 = _last_below(10**29, 10**31, lambda p: sqrt_over_log(p) <= target)
        for p in (p0, p0 + 1):
            for o in (target - 1, target, target + 1):
                # o is far below p = p^(1/2 + 2/4), the M/H boundary at cap 1/4
                assert label(o, p) == ("L" if o <= sqrt_over_log(p) else "M"), (o, p)


def test_lambda_lambda_near_ties_follow_the_decimal_oracle():
    def decide(q, n):
        return decision(SurveyConfig(kind=LAMBDA_LAMBDA, x_max=n), q, n)

    @_in80
    def lamlam_threshold(n):  # n / exp((log log n)^3)
        return n * (-_ln80(n).ln() ** 3).exp()

    @_in80
    def deficiency_bin(q, n):  # floor(20 log(n/q) / (lnln^2 lnlnln)), clamped
        ll = D80.ln(_ln80(n))
        u = 20 * (_ln80(n) - _ln80(q)) / (ll * ll * D80.ln(ll))
        return min(max(int(u.to_integral_value(rounding=decimal.ROUND_FLOOR)), 0), 20)

    # the threshold falls below 1 past n = 10^3 and only climbs back through
    # the integers near log n = 95, where one step of n moves it by 1e-43
    lo, hi = int(math.exp(94)), int(math.exp(101))
    for target in (2, 3, 5):
        n0 = _last_below(lo, hi, lambda n: lamlam_threshold(n) <= target)
        for n in (n0, n0 + 1):
            for q in (target - 1, target, target + 1):
                assert decide(q, n)[0] == (q > lamlam_threshold(n)), (q, n)
    # deficiency bin edge k: q = n^(1 - k w(n)), w = lnln^2 lnlnln / (20 ln);
    # find the n where that crosses an integer
    for k in (5, 10, 19):
        @_in80
        def edge(n):
            ll = _ln80(n).ln()
            return ((1 - k * ll * ll * ll.ln() / (20 * _ln80(n))) * _ln80(n)).exp()
        target = int(edge(10**25)) + 1
        n0 = _last_below(10**24, 10**26, lambda n: edge(n) <= target)
        for n in (n0, n0 + 1):
            for q in (target - 1, target, target + 1):
                assert decide(q, n)[1] == deficiency_bin(q, n), (k, q, n)
            assert {deficiency_bin(target, m) for m in (n0, n0 + 1)} == {k - 1, k}


def test_rsa_pair_sample_as_large_as_the_pairs_is_the_enumeration():
    total = rsa_pair_count(100)
    assert total == 118
    full = run_survey(SurveyConfig(kind=RSA_PAIR, x_max=100, sample_size=total))
    assert not full.sampled and full.total == total
    sample = run_survey(SurveyConfig(kind=RSA_PAIR, x_max=100, sample_size=total - 1))
    assert sample.sampled and sample.total == total - 1
    huge = run_survey(SurveyConfig(kind=RSA_PAIR, x_max=100, sample_size=10**6))
    assert huge.to_dict() == {**full.to_dict(), "sample_size": 10**6}


def test_config_digest_is_stable():
    # a checkpoint written before EpsilonFn lost its form field still resumes
    assert config_digest(SurveyConfig(kind=LAMBDA_N, x_max=100000)) == (
        "86b551b18bd6124729a0af0c1275c4d86ef093ad7d2b573e8479d53c24406eb8")


def test_class_counts_partition():
    r = run_survey(SurveyConfig(kind=CLASS_COUNTS, x_max=1000))
    assert sum(r.class_counts.values()) == 168
    assert r.class_counts["L"] == 1
    assert r.exceed == r.class_counts["H"]
    assert sum(r.histogram) == r.total  # order statistic recorded per prime


def test_rsa_pair_full_enumeration():
    cfg = SurveyConfig(kind=RSA_PAIR, x_max=19, chunk=5)
    chunks = plan_chunks(cfg)
    pairs = [item for lo, hi in chunks for item in survey_mod._pair_items(cfg, lo, hi)]
    assert (11, 19) in pairs
    assert all(p < l < 2 * p for p, l in pairs)
    r = run_survey(cfg)
    assert r.total == len(pairs) == rsa_pair_count(19)
    assert not r.sampled
    # pair (11, 19): lambda(209) = lcm(10, 18) = 90, ord*(2, 90) = 12 < 209^(3/4)
    exceeds, _, _ = item_decision(cfg, (11, 19), OrderKernel(19, 2))
    assert not exceeds


def test_rsa_pair_sampling_is_deterministic():
    cfg = SurveyConfig(kind=RSA_PAIR, x_max=500, sample_size=40, seed=11)
    r1 = run_survey(cfg)
    assert r1.sampled and r1.total == 40
    r2 = run_survey(SurveyConfig(kind=RSA_PAIR, x_max=500, sample_size=40, seed=11,
                                 chunk=13), workers=2)
    d1, d2 = r1.to_dict(), r2.to_dict()
    assert d1 == d2
    # the sample's seeded draw is part of the report: the same pairs as ever
    assert d1 == {
        "schema": 1, "kind": "rsa-pair", "e": 2, "x_max": 500, "x_min": 2,
        "epsilon_cap": 0.25, "exponent": None, "seed": 11, "sample_size": 40,
        "sampled": True, "total": 40, "exceed": 1, "fraction": "1/40", "class_counts": None,
        "histogram": [0, 0, 0, 0, 2, 3, 3, 5, 9, 7, 2, 4, 3, 0, 1, 0, 1, 0, 0, 0, 0]}
    other = run_survey(SurveyConfig(kind=RSA_PAIR, x_max=500, sample_size=40, seed=12))
    assert other.to_dict() != d1  # seed is part of the outcome


def test_epsilon_must_stay_on_its_cap():
    # eps(x) = min(cap, 2/log log x) drops below 1/2 near x = 2^78.8
    for kind, x_max in ((ORD_N, 2**79), (LAMBDA_N, 10**30), (SHIFTED_PRIME, 2**80),
                        (RSA_PAIR, 2**40)):  # a pair is judged at p*l < x_max^2
        with pytest.raises(ValueError, match="cap"):
            SurveyConfig(kind=kind, x_max=x_max, epsilon=EpsilonFn(cap=0.5))
    for kind, x_max, cap in ((ORD_N, 2**78, 0.5), (RSA_PAIR, 2**39, 0.5), (LAMBDA_N, 10**30, 0.25)):
        cfg = SurveyConfig(kind=kind, x_max=x_max, epsilon=EpsilonFn(cap=cap))
        assert cfg._threshold == Fraction(1, 2) + Fraction(str(cap))
        assert float(cfg._threshold) == 0.5 + cap
    # the other kinds need no constant eps exponent
    for kind in (HIGH_FACTOR, ONE_MINUS_DELTA, LAMBDA_LAMBDA):
        SurveyConfig(kind=kind, x_max=10**200, epsilon=EpsilonFn(cap=0.5))
    SurveyConfig(kind=ORD_N, x_max=2**80, epsilon=EpsilonFn(cap=0.5), exponent_override=0.5)


def test_x_max_past_the_float_range_is_refused():
    # eps takes log log x in floats, so a config whose largest x judged lies
    # past their range is refused as it is built, naming x_max; a pair is
    # judged at x_max^2.  Just below that range the config is built
    for kind, x_max in ((ORD_N, 10**308), (CLASS_COUNTS, 10**308), (RSA_PAIR, 10**154)):
        SurveyConfig(kind=kind, x_max=x_max)
        with pytest.raises(ValueError, match=f"x_max = {10 * x_max} is past the float range"):
            SurveyConfig(kind=kind, x_max=10 * x_max)


# the kinds whose t is one Fraction, which a fixed exponent may replace
OVERRIDABLE = (ORD_N, LAMBDA_N, SHIFTED_PRIME, HIGH_FACTOR, RSA_PAIR)


def test_exponent_override_conflicts():
    for kind in (LAMBDA_LAMBDA, ONE_MINUS_DELTA, CLASS_COUNTS):
        with pytest.raises(ValueError):
            SurveyConfig(kind=kind, x_max=100, exponent_override=0.5)
    for kind in OVERRIDABLE:
        cfg = SurveyConfig(kind=kind, x_max=100, exponent_override=0.5)
        assert cfg._threshold == Fraction(1, 2), kind


def test_exponent_override_must_be_finite_and_positive():
    for exponent in (math.nan, math.inf, -math.inf, 0, 0.0, -1, -0.5):
        with pytest.raises(ValueError, match="exponent_override"):
            SurveyConfig(kind=ORD_N, x_max=100, exponent_override=exponent)
    # a t far above 1 is accepted, and decided without a power of it
    assert run_survey(SurveyConfig(kind=ORD_N, x_max=100, exponent_override=1e300)).exceed == 0


def test_merge_monoid():
    cfg = SurveyConfig(kind=ORD_N, x_max=120, chunk=25)
    parts = [evaluate_chunk(cfg, lo, hi) for lo, hi in plan_chunks(cfg)]
    assert len(parts) >= 3
    a, b, c = parts[0], parts[1], functools.reduce(merge_results, parts[2:])
    left = merge_results(merge_results(a, b), c)
    right = merge_results(a, merge_results(b, c))
    assert left.to_dict() == right.to_dict()
    assert merge_results(b, a).to_dict() == merge_results(a, b).to_dict()
    assert merge_results(a, empty_result(cfg)).to_dict() == a.to_dict()


def test_records_are_values_that_pickle():
    # every record is built by position or keyword alike, equals and hashes
    # by its fields within its own class, refuses assignment, and comes back
    # equal from pickle, as a pool worker receives a config (with its
    # threshold) and returns a result; a result, which merging replaces and
    # never changes, refuses assignment too, and is equal by value but
    # unhashable, its histogram being a list
    cfg = SurveyConfig(LAMBDA_N, 300, 2, EpsilonFn(), None, 50)
    assert cfg == SurveyConfig(kind=LAMBDA_N, x_max=300, chunk=50)
    frozen = (factorize(360), order_profile(2, 7), LcgSpec(3, 1, 10, 0), PowerGenSpec(2, 11, 3),
              CycleResult(0, 4), order_profile(2, 12), EpsilonFn(0.3), cfg)
    for record in frozen:
        clone = pickle.loads(pickle.dumps(record))
        assert clone == record and hash(clone) == hash(record) and clone is not record
        field = next(iter(vars(record)))
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    assert vars(pickle.loads(pickle.dumps(cfg)))["_threshold"] == Fraction(3, 4)
    # records of two classes differ even where their field values agree
    assert CycleResult(4, ((2, 2),)) != Factorization(4, ((2, 2),))

    result = run_survey(cfg)
    assert result.total > 0 and result != empty_result(cfg)
    assert result == merge_results(result, empty_result(cfg)) == pickle.loads(pickle.dumps(result))
    with pytest.raises(AttributeError):
        result.total = 0
    with pytest.raises(TypeError):
        hash(result)


def test_run_survey_worker_and_chunk_invariance(monkeypatch):
    # each chunk its own span, so that each is evaluated as a range of its
    # own and the pools start
    monkeypatch.setattr(survey_mod, "SPAN_ITEMS", 1)
    base = run_survey(SurveyConfig(kind=LAMBDA_N, x_max=3000, chunk=3000)).to_dict()
    for chunk, workers in ((7, 1), (100, 2), (1000, 3)):
        cfg = SurveyConfig(kind=LAMBDA_N, x_max=3000, chunk=chunk)
        assert run_survey(cfg, workers=workers).to_dict() == base


def test_log_ratio_bin_edges():
    assert ratio_bin(1, 50) == 0
    assert ratio_bin(8, 64) == 10   # exactly 0.5 goes to bin [0.50, 0.55)
    assert ratio_bin(7, 64) < 10
    assert ratio_bin(63, 64) == 19
    assert ratio_bin(64, 64) == 20  # statistic 1.0
    assert ratio_bin(10**9, 4) == 20  # clamped to the top bin
    # near-edges closer than any fixed precision are decided by q^20 < n^k
    assert ratio_bin(2**200, 2**400 + 1) == 9
    assert ratio_bin(2**200 + 1, 2**400) == 10


def test_item_decisions_reproducible():
    cfg = SurveyConfig(kind=ORD_N, x_max=500)
    r = run_survey(cfg)
    recount = 0
    for n in range(16, 501):
        o = coprime_order(2, n)
        if threshold_sign(cfg, o, n) > 0:
            recount += 1
    assert recount == r.exceed


def _every_kind(x, e):
    """One config per kind at x and base e; rsa-pair at 3000 for its cost."""
    return [SurveyConfig(kind=kind, x_max=3000 if kind == RSA_PAIR else x, e=e)
            for kind in KINDS]


def test_counts_do_not_depend_on_libm_rounding(monkeypatch):
    # every decision near a tie is made exactly, so a libm that rounds its
    # logs and exps differently, by up to 3 ulps either way, changes no
    # count: the float tier takes logs, and the formula brackets logs and exps
    configs = [cfg for e in (2, 3) for cfg in _every_kind(10**4, e)]
    want = [run_survey(cfg).to_dict() for cfg in configs]

    def off_by_ulps(real, salt):
        def moved(x, *base):
            y, h = real(x, *base), hash((x, salt))
            toward = math.inf if h & 4 else -math.inf
            for _ in range(h & 3):
                y = math.nextafter(y, toward)
            return y
        return moved

    monkeypatch.setattr(math, "log", off_by_ulps(math.log, 7))
    monkeypatch.setattr(math, "exp", off_by_ulps(math.exp, 11))
    assert [run_survey(cfg).to_dict() for cfg in configs] == want


# the kinds that brackets decide, by float bounds widened by the guard
BRACKETED = (ORD_N, LAMBDA_N, LAMBDA_LAMBDA, ONE_MINUS_DELTA)


def test_the_float_tier_is_only_a_shortcut(monkeypatch):
    # with an infinite guard every float-tier decision, the column fast
    # path's too, is made by power_compare's exact tiers: the counts must not
    # move, and classify's power_compare, the only one patched, must see each
    # decision: the test of every item (for class-counts, the L boundary of
    # each item with q * q <= p or p = 2, and the M/H boundary of every item
    # where it is below 1) and the bin of every binned item.  The brackets
    # of the integer kinds widen to 0 and infinity under that guard, so
    # every item takes the per-item path.  These are every kind, at its own
    # t and under --exponent 0.5, ord-n and lambda-n under a t past the
    # integer tier (333/1000) or above 1, and class-counts at cap 1/10 too,
    # where the M/H boundary is below 1
    configs = [*_every_kind(2000, 2),
               SurveyConfig(kind=CLASS_COUNTS, x_max=2000, epsilon=EpsilonFn(0.1)),
               *(SurveyConfig(kind=kind, x_max=2000, exponent_override=0.5)
                 for kind in OVERRIDABLE),
               *(SurveyConfig(kind=kind, x_max=2000, exponent_override=t)
                 for kind in BRACKETED[:2] for t in (0.333, 1.5))]
    want = [run_survey(cfg).to_dict() for cfg in configs]
    calls = []
    real_compare = classify_mod.power_compare

    def compare_counted(*args):
        calls.append(args)
        return real_compare(*args)

    monkeypatch.setattr(classify_mod, "_GUARD_REL", math.inf)
    monkeypatch.setattr(classify_mod, "power_compare", compare_counted)
    for cfg, report in zip(configs, want):
        calls.clear()
        assert run_survey(cfg).to_dict() == report, cfg
        tests = report["total"]
        if report["class_counts"]:
            ps = primes_in_range(2, cfg.x_max + 1)
            qs = OrderKernel(cfg.x_max, cfg.e).values("O", zip(ps, ps))
            tests = sum(q * q <= p or p < 3 for q, p in zip(qs, ps)) + tests * (
                cfg._threshold < 1)
        assert len(calls) == tests + sum(report["histogram"]), cfg


def test_the_brackets_are_only_a_shortcut(monkeypatch):
    # with every run's bracket collapsed to the bounds 0 and infinity, no
    # bound settles an item: every item takes the per-item path, and the
    # reports must not move.  ord-n and lambda-n run at their own t and
    # under --exponent 0.5, 0.333 (past the integer tier) and 1.5.  Past
    # 4096 a run grows with x, over chunks of 777 too
    configs = [*(SurveyConfig(kind=kind, x_max=10**4, e=e)
                 for kind in BRACKETED for e in (2, 3, 6, 10)),
               *(SurveyConfig(kind=kind, x_max=10**4, exponent_override=t)
                 for kind in BRACKETED[:2] for t in (0.5, 0.333, 1.5)),
               *(SurveyConfig(kind=kind, x_max=10**4, x_min=3, chunk=777)
                 for kind in BRACKETED)]
    want = [run_survey(cfg).to_dict() for cfg in configs]
    runs = []

    def collapsed(x0, x1, specs):
        runs.append(x1 - x0)
        return (0,) * len(specs), (math.inf,) * len(specs)

    monkeypatch.setattr(classify_mod, "_bracket", collapsed)
    for cfg, report in zip(configs, want):
        runs.clear()
        assert run_survey(cfg).to_dict() == report, cfg
        assert sum(runs) == report["total"] and max(runs) > 64, cfg


def test_checkpoint_resume_and_errors(tmp_path, monkeypatch):
    # 20 chunks in 5 spans of 4: an interrupt at the fourth span leaves
    # exactly the 12 chunks of the three spans done before it
    cfg = SurveyConfig(kind=ORD_N, x_max=40_000, chunk=2000)
    chunks = plan_chunks(cfg)
    assert len(chunks) == 20 and survey_mod.SPAN_ITEMS // cfg.chunk == 4
    clean = run_survey(cfg).to_dict()
    ckpt = str(tmp_path / "survey.ckpt")

    spans = []
    real = survey_mod.evaluate_chunk

    def explode_after_three(cfg, lo, hi):
        if len(spans) == 3:
            raise KeyboardInterrupt
        spans.append((lo, hi))
        return real(cfg, lo, hi)

    monkeypatch.setattr(survey_mod, "evaluate_chunk", explode_after_three)
    with pytest.raises(KeyboardInterrupt):
        run_survey(cfg, checkpoint=ckpt)
    monkeypatch.setattr(survey_mod, "evaluate_chunk", real)
    assert spans == [(chunks[i][0], chunks[i + 3][1]) for i in (0, 4, 8)]
    assert json.loads(Path(ckpt).read_text())["done"] == [
        [lo, hi, hi - lo] for lo, hi in chunks[:12]]

    resumed = run_survey(cfg, checkpoint=ckpt)
    assert resumed.to_dict() == clean
    # a finished checkpoint resumes to the same result without recomputing
    assert run_survey(cfg, checkpoint=ckpt).to_dict() == clean

    # corrupt file: explicit error, never a silent restart
    Path(ckpt).write_text("{not json")
    with pytest.raises(CheckpointError):
        run_survey(cfg, checkpoint=ckpt)
    # checkpoint from another config: explicit error too
    other = run_survey(SurveyConfig(kind=ORD_N, x_max=400, chunk=100),
                       checkpoint=str(tmp_path / "other.ckpt"))
    with pytest.raises(CheckpointError):
        run_survey(cfg, checkpoint=str(tmp_path / "other.ckpt"))


def test_checkpoint_writes_do_not_grow_with_the_chunk_count(tmp_path, monkeypatch):
    # rewriting the whole checkpoint after every span costs time quadratic
    # in the span count.  Each chunk is its own span here, until the
    # interrupt below.  The stubbed clock passes CHECKPOINT_EVERY_S once in
    # the run, whatever the machine's speed: the first span's write, one
    # throttled write and the last one are all the run may make
    cfg = SurveyConfig(kind=LAMBDA_N, x_max=2 * 10**4, chunk=10)
    chunks = plan_chunks(cfg)
    assert len(chunks) > 1990
    clean, span_items = run_survey(cfg).to_dict(), survey_mod.SPAN_ITEMS
    monkeypatch.setattr(survey_mod, "SPAN_ITEMS", 1)
    ticks = itertools.count()
    monkeypatch.setattr(survey_mod, "monotonic",
                        lambda: next(ticks) * survey_mod.CHECKPOINT_EVERY_S / 1500)
    writes, save = [], survey_mod._save_checkpoint
    monkeypatch.setattr(survey_mod, "_save_checkpoint",
                        lambda path, cfg, done, partial: writes.append(len(done))
                        or save(path, cfg, done, partial))
    evaluated, evaluate, interrupt_at = [], survey_mod.evaluate_chunk, None

    def counted(cfg, lo, hi):
        if (lo, hi) == interrupt_at:
            raise KeyboardInterrupt
        evaluated.append(lo)
        return evaluate(cfg, lo, hi)

    monkeypatch.setattr(survey_mod, "evaluate_chunk", counted)
    ckpt = tmp_path / "survey.ckpt"
    assert run_survey(cfg, checkpoint=str(ckpt)).to_dict() == clean
    assert len(writes) <= 3 and writes[0] == 1 and writes[-1] == len(chunks)
    # the finished file resumes to the identical report, evaluating nothing
    evaluated.clear()
    assert run_survey(cfg, checkpoint=str(ckpt)).to_dict() == clean
    assert evaluated == []

    # in spans of 819 chunks, an interrupt at the third span leaves exactly
    # the chunks of the two done before it
    monkeypatch.setattr(survey_mod, "SPAN_ITEMS", span_items)
    interrupt_at, ckpt = (chunks[2 * 819][0], chunks[-1][1]), tmp_path / "interrupted.ckpt"
    with pytest.raises(KeyboardInterrupt):
        run_survey(cfg, checkpoint=str(ckpt))
    assert json.loads(ckpt.read_text())["done"] == [
        [lo, hi, hi - lo] for lo, hi in chunks[:2 * 819]]
    interrupt_at = None
    assert run_survey(cfg, checkpoint=str(ckpt)).to_dict() == clean


def test_tampered_checkpoints_are_refused(tmp_path, capsys):
    # a checkpoint whose done chunks and partial counts do not add up would
    # resume to a wrong report (deleting the last done chunk made lambda-n
    # count it twice): each tampering below must exit 4 instead
    def set_partial(key, value):
        return lambda doc: doc["partial"].__setitem__(key, value)

    for kind, x_max, chunk in ((LAMBDA_N, 5000, 1000), (CLASS_COUNTS, 5000, 1000),
                               (RSA_PAIR, 500, 100)):
        args = ["survey", "--kind", kind, "--max", str(x_max), "--chunk", str(chunk)]
        path, report = tmp_path / f"{kind}.ckpt", tmp_path / f"{kind}.json"
        assert main(args + ["--checkpoint", str(path), "--out", str(report)]) == 0
        doc = json.loads(path.read_text())
        total = doc["partial"]["total"]
        tamperings = [
            lambda doc: doc["done"].pop(),                      # counted, not done
            lambda doc: doc["done"].append(doc["done"][0]),     # done twice
            lambda doc: doc["done"].append([1, 2, 0]),          # not a chunk of the survey
            lambda doc: doc["done"][0].__setitem__(2, doc["done"][0][2] + 1),
            set_partial("total", total + 1),
            set_partial("exceed", total + 1),
            set_partial("histogram", [total + 1] + [0] * 20),
            set_partial("class_counts", {"L": total, "Z": 0}),
            set_partial("sampled", not doc["partial"]["sampled"]),
        ]
        if kind == CLASS_COUNTS:
            tamperings += [set_partial("class_counts", {"L": 1, "M": 0, "H": 0}),
                           set_partial("class_counts", None)]
        for edit in tamperings:
            tampered = json.loads(json.dumps(doc))
            edit(tampered)
            path.write_text(json.dumps(tampered))
            assert main(args + ["--checkpoint", str(path)]) == 4, tampered
            assert "inconsistent" in capsys.readouterr().err
        # untouched, it resumes to the byte-identical report
        path.write_text(json.dumps(doc))
        resumed = tmp_path / "resumed.json"
        assert main(args + ["--checkpoint", str(path), "--out", str(resumed)]) == 0
        assert resumed.read_bytes() == report.read_bytes()
    capsys.readouterr()


def test_run_survey_needs_a_worker_and_starts_no_idle_ones(monkeypatch):
    # each chunk its own span, so that the spans are as many as the chunks
    monkeypatch.setattr(survey_mod, "SPAN_ITEMS", 1)
    cfg = SurveyConfig(kind=ORD_N, x_max=300, chunk=100)
    for workers in (0, -3):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            run_survey(cfg, workers=workers)

    class RecordingPool:  # runs the chunks in this process
        sizes, chunksizes, cancels = [], [], []

        def __init__(self, max_workers):
            self.sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            self.chunksizes.append(chunksize)
            return map(fn, *iterables)

        def shutdown(self, wait=True, *, cancel_futures=False):
            self.cancels.append(cancel_futures)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    assert len(plan_chunks(cfg)) == 3
    assert run_survey(cfg, workers=64).to_dict() == run_survey(cfg).to_dict()
    assert RecordingPool.sizes == [3]
    assert 1 <= RecordingPool.chunksizes[0] <= 3
    # many chunks go to the pool in batches, each no larger than what is left
    fine = SurveyConfig(kind=ORD_N, x_max=300, chunk=1)
    assert run_survey(fine, workers=2).to_dict() == run_survey(fine).to_dict()
    assert RecordingPool.sizes[1] == 2
    assert 1 < RecordingPool.chunksizes[1] <= len(plan_chunks(fine))
    assert RecordingPool.cancels == [True, True]


def _fork_pool(monkeypatch):
    """Have run_survey's pools fork their workers, whatever the default."""
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", functools.partial(
        concurrent.futures.ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")))


def test_a_failed_merge_drops_the_chunks_not_started(tmp_path, monkeypatch):
    # a pool must not run the rest of the survey after the parent fails: the
    # merge raises at the third span, and the workers, which record each
    # span they evaluate, stop once their running batches end
    log = tmp_path / "evaluated"
    real_decide, real_merge = survey_mod._decide, survey_mod.merge_results

    def recording_decide(cfg, qs, xs):
        with open(log, "a") as fh:
            fh.write(".")
        return real_decide(cfg, qs, xs)

    merged = []

    def failing_merge(a, b):
        merged.append(b)
        if len(merged) == 3:
            raise RuntimeError("merge failure")
        return real_merge(a, b)

    # the workers are forked, so they run the recording _decide
    _fork_pool(monkeypatch)
    monkeypatch.setattr(survey_mod, "_decide", recording_decide)
    monkeypatch.setattr(survey_mod, "merge_results", failing_merge)
    cfg = SurveyConfig(kind=ORD_N, x_max=4 * 10**5, chunk=100)
    with pytest.raises(RuntimeError, match="merge failure"):
        run_survey(cfg, workers=2)
    # the 4000 chunks make 50 spans of at most 81 chunks, which go out in
    # batches of 50 // 16 = 3; besides the first batch, only those running
    # or in the pool's queue of 3 are run
    spans = -(-len(plan_chunks(cfg)) // (survey_mod.SPAN_ITEMS // cfg.chunk))
    assert len(merged) == 3 and spans == 50
    assert 3 <= len(log.read_text()) <= 3 * spans // 4


def _fresh_modules(roots, *args):
    """For each line that `python -S *args` prints (its sys.modules), the
    modules under roots that it holds beyond a bare `python -S`; -S keeps
    what a site hook preloads (typing, on some machines) out of both."""
    src = str(Path(survey_mod.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}

    def modules(*argv):
        proc = subprocess.run([sys.executable, "-S", *argv], capture_output=True,
                              text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return [{m for m in line.split() if m.split(".")[0] in roots}
                for line in proc.stdout.splitlines()]

    [bare] = modules("-c", "import sys; print(' '.join(sorted(sys.modules)))")
    return [found - bare for found in modules(*args)]


def test_a_cold_query_or_one_worker_survey_loads_no_pool_or_hashlib(tmp_path):
    # a fresh process that imports the CLI and runs two queries and a
    # one-worker survey without a checkpoint loads nothing of the process
    # pool, mmap or hashlib beyond what a bare interpreter holds; a
    # checkpoint, then a pooled survey of two spans, which maps its arrays
    # before the pool, load them, so the probe sees what it looks for
    probe = textwrap.dedent("""
        import contextlib, io, sys
        import ordstat, ordstat.cli

        def run(*argv):
            with contextlib.redirect_stdout(io.StringIO()):
                assert ordstat.cli.main(list(argv)) == 0, argv

        def loaded():
            print(" ".join(sorted(sys.modules)))

        run("compute", "order", "--e", "2", "--n", "12")
        run("period", "bbs", "--n", "11", "--u", "3")
        run("survey", "--kind", "lambda-n", "--max", "3000", "--workers", "1")
        loaded()
        run("survey", "--kind", "lambda-n", "--max", "3000", "--checkpoint", sys.argv[1])
        run("survey", "--kind", "lambda-n", "--max", "20000", "--workers", "2")
        loaded()
    """)
    cold, warm = _fresh_modules(("multiprocessing", "concurrent", "hashlib", "_hashlib", "mmap"),
                                "-c", probe, str(tmp_path / "ckpt.json"))
    assert cold == set()
    assert {"hashlib", "concurrent.futures", "multiprocessing", "mmap"} <= warm


def test_a_cold_query_loads_no_dataclasses_or_typing():
    # the records are plain classes and the annotations stay strings, so
    # neither dataclasses (with the inspect, ast and dis it imports) nor
    # typing is loaded by importing the package or answering a query
    probe = textwrap.dedent("""
        import contextlib, io, sys
        import ordstat, ordstat.cli

        with contextlib.redirect_stdout(io.StringIO()):
            assert ordstat.cli.main(["compute", "order", "--e", "2", "--n", "12"]) == 0
            assert ordstat.cli.main(["period", "bbs", "--n", "11", "--u", "3"]) == 0
        print(" ".join(sorted(sys.modules)))
    """)
    roots = ("dataclasses", "inspect", "ast", "dis", "typing")
    assert _fresh_modules(roots, "-c", probe) == [set()]


def test_a_cold_query_loads_neither_survey_nor_classify(tmp_path, capsys):
    # importing the package loads none of its submodules, a submodule and a
    # name resolve at their first use, and compute order, compute lambda and
    # period bbs load neither survey nor classify, nor the decimal, fractions
    # and random they import; compute classify and a survey then load them
    # and print what they print in this process
    argvs = [["compute", "classify", "--p", "7", "--e", "2"],
             ["survey", "--kind", "class-counts", "--max", "500", "--format", "csv"]]
    probe = textwrap.dedent("""
        import contextlib, io, json, sys

        def run(argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert ordstat.cli.main(argv) == 0, argv
            return out.getvalue()

        def loaded():
            print(" ".join(sorted(sys.modules)))

        import ordstat
        loaded()
        assert ordstat.generators.brent_cycle is ordstat.brent_cycle
        import ordstat.cli
        run(["compute", "order", "--e", "2", "--n", "12"])
        run(["compute", "lambda", "--n", "8"])
        run(["period", "bbs", "--n", "11", "--u", "3"])
        loaded()
        outputs = [run(argv) for argv in json.loads(sys.argv[1])]
        loaded()
        with open(sys.argv[2], "w", encoding="utf-8") as fh:
            json.dump(outputs, fh)
    """)
    out = tmp_path / "outputs.json"
    package, cold, warm = _fresh_modules(("ordstat", "decimal", "fractions", "random"),
                                         "-c", probe, json.dumps(argvs), str(out))
    late = {"ordstat.survey", "ordstat.classify", "decimal", "fractions", "random"}
    assert package == {"ordstat"}
    assert cold & late == set()
    assert late <= warm
    expected = []
    for argv in argvs:
        assert main(argv) == 0
        expected.append(capsys.readouterr().out)
    assert json.loads(out.read_text(encoding="utf-8")) == expected


def test_surveys_factor_only_through_the_table(monkeypatch):
    def fail(name):
        def no_fall_through(*args):
            raise AssertionError(f"survey fell through to {name}{args}")
        return no_fall_through

    # the kernel lives in the orders module and falls through to these there
    for name in ("factorize", "coprime_order", "carmichael_lambda"):
        assert not hasattr(survey_mod, name)
        monkeypatch.setattr(orders_mod, name, fail(name))
    for kind in KINDS:
        assert run_survey(SurveyConfig(kind=kind, x_max=2000, chunk=700)).total > 0


INT_KINDS = (ORD_N, LAMBDA_N, ONE_MINUS_DELTA, LAMBDA_LAMBDA)


def _per_item_result(cfg):
    """The survey's result with each q read item by item off a new kernel
    by the kind's definition, no sieve, and the items decided as one column."""
    items = range(cfg.low(), cfg.x_max + 1)
    read = defined_q(cfg.kind, OrderKernel(cfg.x_max, cfg.e))
    return survey_mod._decide(cfg, list(map(read, items)), list(items)).to_dict()


def test_chunk_sieve_matches_the_kernel_per_item(monkeypatch):
    # an integer kind's q(n) is the lcm of its quantity over p^a || n: the
    # chunk sieve must give the kind's definition at every n, whatever the
    # chunk boundaries
    assert {k for k in KINDS if _KINDS[k].population is _KINDS[ORD_N].population} == set(INT_KINDS)
    assert {name: _KINDS[name].quantity for name in INT_KINDS} == {
        ORD_N: "O", LAMBDA_N: "L", ONE_MINUS_DELTA: "L", LAMBDA_LAMBDA: "LL"}
    x = 2 * 10**5
    # chunks of 1 and 7 on windows holding 2, 3, 2^17, 3^11 and 7^6, and
    # chunks of 1777 on the range's two ends, the top one holding 3^11
    small = [(2, 600), (131_000, 131_100), (177_100, 177_200), (117_600, 117_700)]
    ends = [(2, 25_000), (175_000, x + 1)]
    # the kinds' definitions, ord*(e, n), ord*(e, lambda(n)) and
    # lambda(lambda(n)), with what is free of e taken once: each n is
    # factored once for every base, ord*(e, n) being the lcm of O over the
    # p^a || n as OrderKernel.ord takes it, and lambda(n), which takes few
    # values, once, with ord*(e, .) and lambda(.) once per value.
    # One-minus-delta reads lambda-n's quantity, so each quantity is sieved
    # once per base, and lambda-lambda's LL, free of e, at the first base
    table = OrderKernel(x, 2)
    lams = list(map(table.lam, range(2, x + 1)))
    powers = list(map(table._prime_powers, range(2, x + 1)))
    for e in (2, 3, 6, 10, 12):
        kernel = OrderKernel(x, e)
        ord_at = {lam: kernel.ord(lam) for lam in set(lams)}
        want = {"O": [None, None] + [math.lcm(*kernel.values("O", pp)) for pp in powers],
                "L": [None, None] + [ord_at[lam] for lam in lams]}
        if e == 2:
            lam_at = {lam: kernel.lam(lam) for lam in set(lams)}
            want["LL"] = [None, None] + [lam_at[lam] for lam in lams]
        for quantity, values in want.items():
            for chunk, windows in ((10**4, [(2, x + 1)]), (1777, ends), (7, small), (1, small)):
                for lo, hi in windows:
                    got = [q for a in range(lo, hi, chunk)
                           for q in survey_mod._sieve_values(quantity, kernel, a,
                                                             min(a + chunk, hi))]
                    assert got == values[lo:hi], (e, quantity, chunk, lo)
    # whole surveys: an x_min window, and a fixed exponent, whose floor is 2
    for name in (ORD_N, LAMBDA_N):
        for cfg in (SurveyConfig(kind=name, e=6, x_min=65_000, x_max=66_000, chunk=77),
                    SurveyConfig(kind=name, e=12, x_max=3000, exponent_override=0.5, chunk=7)):
            assert run_survey(cfg).to_dict() == _per_item_result(cfg), cfg
    for name in (ONE_MINUS_DELTA, LAMBDA_LAMBDA):
        cfg = SurveyConfig(kind=name, e=10, x_min=3, x_max=3000, chunk=1)
        assert run_survey(cfg).to_dict() == _per_item_result(cfg), cfg
    # the value array belongs to one kernel: the same kind and range at
    # another base must not read it
    for e in (2, 3, 2, 12):
        cfg = SurveyConfig(kind=LAMBDA_N, e=e, x_max=3000)
        assert run_survey(cfg).to_dict() == _per_item_result(cfg), cfg
    # past the table, prime powers and cofactors are valued uncached: the
    # surveys share one kernel whose table stops at the lowered cap, and
    # each report equals the full table's
    configs = [SurveyConfig(kind=name, e=6, x_max=3000, chunk=1000) for name in INT_KINDS]
    want = list(map(_per_item_result, configs))
    built, real_init = [], OrderKernel.__init__

    def recording_init(kernel, limit, e):
        built.append(limit)
        real_init(kernel, limit, e)

    monkeypatch.setattr(orders_mod, "SPF_TABLE_MAX", 500)
    monkeypatch.setattr(OrderKernel, "__init__", recording_init)
    forget_kernel()
    for cfg, report in zip(configs, want):
        assert run_survey(cfg).to_dict() == report, cfg
    assert built == [500]


PRIME_KINDS = (SHIFTED_PRIME, RSA_PAIR, HIGH_FACTOR, CLASS_COUNTS)
PRIME_CONFIGS = [SurveyConfig(kind=kind, e=e, x_max=3000 if kind == RSA_PAIR else 10**4,
                              chunk=1000)
                 for e in (2, 3, 6) for kind in PRIME_KINDS]


def forget_kernel():
    """Drop the process's survey kernel and the kept arrays it holds."""
    orders_mod._kernel = None


def fresh_report(cfg):
    """cfg's report on a new kernel."""
    forget_kernel()
    return run_survey(cfg).to_dict()


def test_the_kernel_arrays_change_nothing_but_the_speed():
    # the README's claim, attacked on the prime and pair kinds: a report must
    # not depend on which arrays an earlier survey filled, in which order,
    # nor in which process
    want = list(map(fresh_report, PRIME_CONFIGS))
    assert [run_survey(cfg).to_dict() for cfg in PRIME_CONFIGS] == want
    assert [run_survey(cfg).to_dict() for cfg in reversed(PRIME_CONFIGS)] == want[::-1]
    assert [run_survey(cfg, workers=2).to_dict() for cfg in PRIME_CONFIGS] == want
    # one range, the base switched away and back: a kernel's arrays are
    # never read at another base
    for e in (2, 3, 2):
        for kind in PRIME_KINDS:
            cfg = SurveyConfig(kind=kind, e=e, x_max=3000, chunk=1000)
            assert run_survey(cfg).to_dict() == fresh_report(cfg), cfg
    # the kinds that share an array, back to back at one range and base:
    # ord-n and class-counts share O; lambda-n, shifted-prime, rsa-pair and
    # one-minus-delta share L
    for sequence in ((ORD_N, CLASS_COUNTS), (LAMBDA_N, SHIFTED_PRIME, RSA_PAIR, ONE_MINUS_DELTA)):
        configs = [SurveyConfig(kind=kind, e=6, x_max=3000, chunk=1000) for kind in sequence]
        want = list(map(fresh_report, configs))
        forget_kernel()
        assert [run_survey(cfg).to_dict() for cfg in configs] == want, sequence


def test_the_prime_kinds_read_the_same_past_the_table(monkeypatch):
    # above its table the kernel factors through arith.factorize into the
    # same descent: with the cap lowered, ord(e, p), ord*(e, p - 1) and
    # lpf(p - 1) leave the table, and every report equals the full table's
    # (the integer kinds are surveyed past the cap in
    # test_chunk_sieve_matches_the_kernel_per_item)
    want = list(map(fresh_report, PRIME_CONFIGS))
    factored = []
    real_factorize = orders_mod.factorize

    def recording_factorize(n):
        factored.append(n)
        return real_factorize(n)

    monkeypatch.setattr(orders_mod, "factorize", recording_factorize)
    monkeypatch.setattr(orders_mod, "SPF_TABLE_MAX", 2**10)
    for cfg, report in zip(PRIME_CONFIGS, want):
        factored.clear()
        assert fresh_report(cfg) == report, cfg
        assert factored and min(factored) > 2**10, cfg


def _record_descents(monkeypatch, record):
    """Have record(p) called at each descent: at each O(p) a kernel
    computes at a prime p not dividing its base, where _prime_power_order
    descends from p - 1.  Every O a kernel computes goes through its rule in
    orders._QUANTITIES, which forked pool workers inherit."""
    rule = orders_mod._QUANTITIES["O"]

    def recording(kernel, p, q):
        if q == p and kernel.e % p:
            record(p)
        return rule(kernel, p, q)

    monkeypatch.setitem(orders_mod._QUANTITIES, "O", recording)


def _appender(log):
    """record(p) for _record_descents that appends p to the file log, so
    that forked pool workers report their descents too."""
    def record(p):
        with open(log, "a") as fh:
            fh.write(f"{p} ")
    return record


def test_each_prime_order_is_computed_once_per_process(monkeypatch):
    # shifted-prime and rsa-pair read the kernel's L array, class-counts its
    # O array: after shifted-prime, rsa-pair at the same range and base asks
    # the kernel for no order, class-counts never asks it for ord*(e, n),
    # and no prime is descended twice
    descended, asked = [], []
    real_ord = OrderKernel.ord

    def recording_ord(kernel, n):
        asked.append(n)
        return real_ord(kernel, n)

    _record_descents(monkeypatch, descended.append)
    monkeypatch.setattr(OrderKernel, "ord", recording_ord)
    primes = primes_in_range(2, 10**4 + 1)
    for e in (2, 3, 6):
        forget_kernel()
        descended.clear()
        run_survey(SurveyConfig(kind=SHIFTED_PRIME, x_max=10**4, e=e))
        before = len(descended)
        asked.clear()
        run_survey(SurveyConfig(kind=RSA_PAIR, x_max=10**4, e=e, sample_size=20_000))
        assert (len(descended), asked) == (before, []), e
        for _ in range(2):
            run_survey(SurveyConfig(kind=CLASS_COUNTS, x_max=10**4, e=e, chunk=777))
        assert asked == [], e
        assert len(descended) == len(set(descended)) <= len(primes), e
        assert set(descended) == {p for p in primes if e % p}, e


def _slot_powers(limit):
    """The (p, q) of each prime power q <= limit, by its kept array slot."""
    size, out = orders_mod._slots(limit), {}
    for q in range(2, limit + 1):
        factors = factorize(q).factors
        if len(factors) == 1:
            out[q >> 1 if q & 1 else size - q.bit_length()] = (factors[0][0], q)
    return out


def test_pool_workers_fill_the_parents_arrays(monkeypatch):
    # forked workers fill the arrays that the parent maps before the pool,
    # without building a table, once the parent's kernel of another base
    # is gone: every value they leave there, in the O, L or LL slot of a
    # prime power, is the one a new kernel computes, and ord-n's workers,
    # which read O at every prime power, leave every slot filled, also when
    # four workers, more than there are cores, race over chunks of 25.  A
    # survey at another base then frees the mapped arrays.  Each chunk is
    # its own span, so that a range of 3000 gives the workers several
    _fork_pool(monkeypatch)
    monkeypatch.setattr(survey_mod, "SPAN_ITEMS", 1)
    powers = _slot_powers(3000)
    runs = [(SurveyConfig(kind=kind, x_max=3000, e=e, chunk=300), 2, names)
            for e in (2, 3, 6)
            for kind, names in ((ORD_N, ["O"]), (LAMBDA_N, ["L", "O"]), (LAMBDA_LAMBDA, ["LL"]))]
    runs.append((SurveyConfig(kind=ORD_N, x_max=3000, e=6, chunk=25), 4, ["O"]))
    for cfg, workers, names in runs:
        want = fresh_report(cfg)
        run_survey(SurveyConfig(kind=HIGH_FACTOR, x_max=2000, e=cfg.e + 1))
        other = weakref.ref(orders_mod._survey_kernel(2000, cfg.e + 1, "lpf"))
        assert run_survey(cfg, workers=workers).to_dict() == want, cfg
        kernel = orders_mod._survey_kernel(3000, cfg.e, _KINDS[cfg.kind].quantity)
        kept = kernel._kept
        assert sorted(kept) == names and kernel._spf is None and other() is None, cfg
        del kernel
        fresh = OrderKernel(3000, cfg.e)
        for name, values in kept.items():
            assert type(values) is memoryview and values[0] == 1, cfg
            filled = [i for i, v in enumerate(values) if v and i]
            assert filled and all(
                values[i] == fresh.values(name, [powers[i]])[0] for i in filled), (cfg, name)
            if cfg.kind == ORD_N:
                assert len(filled) == len(powers), cfg
    mapped = weakref.ref(kept["O"])
    del kept, values
    run_survey(SurveyConfig(kind=LAMBDA_LAMBDA, x_max=2000))
    assert mapped() is None


def test_a_second_pooled_run_descends_no_prime(tmp_path, monkeypatch):
    # the parent keeps what its forked workers computed: the same survey,
    # pooled again or run by one worker, descends no prime anywhere.  A
    # pool after a one-worker run starts from what that run kept, mapped
    # with it.  The workers report their descents through a file.  Each
    # chunk is its own span, so that a range of 3000 is pooled
    log = tmp_path / "descended"
    _fork_pool(monkeypatch)
    monkeypatch.setattr(survey_mod, "SPAN_ITEMS", 1)
    _record_descents(monkeypatch, _appender(log))
    for kind in (ORD_N, LAMBDA_N):
        forget_kernel()
        cfg = SurveyConfig(kind=kind, x_max=3000, e=3, chunk=250)
        want = run_survey(cfg, workers=2).to_dict()
        first = log.read_text().split()
        assert first, kind
        if kind == ORD_N:
            assert set(first) == {str(p) for p in primes_in_range(2, 3001) if p != 3}
        log.write_text("")
        assert run_survey(cfg, workers=2).to_dict() == want, kind
        assert run_survey(cfg).to_dict() == want, kind
        assert log.read_text() == "", kind
        forget_kernel()
        assert run_survey(cfg).to_dict() == want and log.read_text(), kind
        log.write_text("")
        assert run_survey(cfg, workers=2).to_dict() == want, kind
        assert log.read_text() == "", kind


def _logged(log, fn, entry):
    """fn, which first appends entry(*args) to the file log, so that forked
    pool workers report their calls too."""
    def logging(*args):
        with open(log, "a") as fh:
            fh.write(f"{entry(*args)} ")
        return fn(*args)
    return logging


def test_a_smaller_survey_reads_the_kept_kernel(tmp_path, monkeypatch):
    # the kernel of a pooled lambda-n at 3000 serves every survey at its
    # base up to 3000 that needs no array it lacks: lambda-n at 2999, one
    # worker or pooled, in a window as perfbench's halving run takes it,
    # and the other kinds reading L descend no prime on it.  lambda-lambda,
    # whose LL array it lacks, gets a kernel of its own range.  Each chunk
    # is its own span, so that the integer ranges below 3000 are pooled
    monkeypatch.setattr(survey_mod, "SPAN_ITEMS", 1)
    log = tmp_path / "descended"
    smaller = [(SurveyConfig(kind=LAMBDA_N, x_max=2999, chunk=250), 1),
               (SurveyConfig(kind=LAMBDA_N, x_max=2999, chunk=250), 2),
               (SurveyConfig(kind=LAMBDA_N, x_min=1501, x_max=2999, chunk=100), 2),
               (SurveyConfig(kind=ONE_MINUS_DELTA, x_max=2000), 1),
               (SurveyConfig(kind=SHIFTED_PRIME, x_max=2000, chunk=300), 2),
               (SurveyConfig(kind=RSA_PAIR, x_max=1000), 1)]
    want = [fresh_report(cfg) for cfg, _ in smaller]
    _fork_pool(monkeypatch)
    _record_descents(monkeypatch, _appender(log))
    forget_kernel()
    run_survey(SurveyConfig(kind=LAMBDA_N, x_max=3000, chunk=250), workers=2)
    assert log.read_text()
    log.write_text("")
    kernel = orders_mod._kernel
    for (cfg, workers), report in zip(smaller, want):
        assert run_survey(cfg, workers=workers).to_dict() == report, cfg
        assert log.read_text() == "" and orders_mod._kernel is kernel, cfg
    cfg = SurveyConfig(kind=LAMBDA_LAMBDA, x_max=2000)
    report = run_survey(cfg).to_dict()
    assert orders_mod._kernel.limit == 2000 and report == fresh_report(cfg)


def test_a_kernel_builds_its_table_at_its_first_computed_value(tmp_path, monkeypatch):
    # a second pooled run at the same range and base reads every value off
    # the parent's arrays, so none of its workers builds a table, and the
    # parent builds none in either run.  A query kernel, OrderKernel(1, e),
    # never builds one, and its values are those of a kernel with a table.
    # The workers log their builds to a file.  Each chunk is its own span,
    # so that a range of 3000 is pooled
    log = tmp_path / "built"
    _fork_pool(monkeypatch)
    monkeypatch.setattr(survey_mod, "SPAN_ITEMS", 1)
    monkeypatch.setattr(OrderKernel, "_build_table",
                        _logged(log, OrderKernel._build_table, lambda kernel: kernel.limit))
    for kind in (ORD_N, LAMBDA_N, LAMBDA_LAMBDA, SHIFTED_PRIME, CLASS_COUNTS, RSA_PAIR):
        forget_kernel()
        log.write_text("")
        cfg = SurveyConfig(kind=kind, x_max=3000, e=3, chunk=250)
        want = run_survey(cfg, workers=2).to_dict()
        assert set(log.read_text().split()) == {"3000"}, kind
        log.write_text("")
        assert run_survey(cfg, workers=2).to_dict() == want, kind
        assert log.read_text() == "" and orders_mod._kernel._spf is None, kind
    for e in (2, 3, 6):
        table = OrderKernel(3000, e)
        for n in range(1, 3001):
            query = OrderKernel(1, e)
            assert [query.ord(n), query.lam(n), query.lpf(n)] == [
                table.ord(n), table.lam(n), table.lpf(n)], (e, n)
            powers = factorize(n).powers()
            assert query.values("L", powers) == table.values("L", powers), (e, n)
        assert log.read_text() == "3000 " and query._spf is None, e
        log.write_text("")
    assert main(["compute", "order", "--e", "2", "--n", "65537"]) == 0
    assert log.read_text() == ""


def test_spans_change_no_report(tmp_path, monkeypatch):
    # an integer kind evaluates each span of its consecutive small chunks
    # as one range: every report equals the one each chunk evaluated as a
    # range of its own gives (SPAN_ITEMS = 1), under one worker and two
    # forked ones.  The ranges end in a partial span.  Chunks of 7 and of 1
    # run at one base per kind.  A resume from a checkpoint whose done
    # chunks end inside a span of the plan, evaluated in spans that start
    # at the first chunk left, gives the same report
    _fork_pool(monkeypatch)
    bases, span_items = (2, 3, 6, 10), survey_mod.SPAN_ITEMS
    for i, kind in enumerate(INT_KINDS):
        for e in bases:
            monkeypatch.setattr(survey_mod, "SPAN_ITEMS", 1)
            want = run_survey(SurveyConfig(kind=kind, e=e, x_min=3, x_max=17_000,
                                           chunk=1024)).to_dict()
            monkeypatch.setattr(survey_mod, "SPAN_ITEMS", span_items)
            for chunk in ((1, 7) if e == bases[i] else ()) + (777, 1024):
                cfg = SurveyConfig(kind=kind, e=e, x_min=3, x_max=17_000, chunk=chunk)
                assert (17_001 - 3) % (span_items // chunk * chunk), cfg
                for workers in (1, 2):
                    assert run_survey(cfg, workers=workers).to_dict() == want, (cfg, workers)
    cfg = SurveyConfig(kind=LAMBDA_LAMBDA, e=6, x_min=3, x_max=17_000, chunk=777)
    chunks = plan_chunks(cfg)
    assert span_items // cfg.chunk == 10 and len(chunks) == 22
    # two workers sieve each of the three spans once between them
    log = tmp_path / "sieved"
    monkeypatch.setattr(survey_mod, "_sieve_values", _logged(
        log, survey_mod._sieve_values, lambda quantity, kernel, lo, hi: lo))
    forget_kernel()
    run_survey(cfg, workers=2)
    assert sorted(map(int, log.read_text().split())) == [3, 7773, 15543]
    # a run in spans of 3 chunks, interrupted at its third, leaves 6 done
    want, evaluate = fresh_report(cfg), survey_mod.evaluate_chunk

    def interrupted(cfg, lo, hi):
        if lo == chunks[6][0]:
            raise KeyboardInterrupt
        return evaluate(cfg, lo, hi)

    monkeypatch.setattr(survey_mod, "evaluate_chunk", interrupted)
    monkeypatch.setattr(survey_mod, "SPAN_ITEMS", 3 * cfg.chunk)
    ckpt = tmp_path / "survey.ckpt"
    with pytest.raises(KeyboardInterrupt):
        run_survey(cfg, checkpoint=str(ckpt))
    monkeypatch.setattr(survey_mod, "evaluate_chunk", evaluate)
    monkeypatch.setattr(survey_mod, "SPAN_ITEMS", span_items)
    assert len(json.loads(ckpt.read_text())["done"]) == 6
    for workers in (1, 2):
        copy = tmp_path / f"copy{workers}.ckpt"
        copy.write_text(ckpt.read_text())
        log.write_text("")
        assert run_survey(cfg, workers=workers, checkpoint=str(copy)).to_dict() == want
        assert sorted(map(int, log.read_text().split())) == [chunks[6][0], chunks[16][0]]


def test_the_chunk_sets_the_granularity_not_the_cost(tmp_path, monkeypatch):
    # lambda-n over [3, 20011] at chunk 1 is 20,009 chunks, but a run sieves
    # and decides each span of SPAN_ITEMS of them once: at most
    # ceil(20009 / SPAN_ITEMS) calls of each, also over a run interrupted at
    # its second span and its resume, whose reports equal chunk 1024's.
    # The empty result a run starts from decides no item and is not counted
    cfg = SurveyConfig(kind=LAMBDA_N, x_min=3, x_max=20_011, chunk=1)
    want = run_survey(SurveyConfig(kind=LAMBDA_N, x_min=3, x_max=20_011,
                                   chunk=1024)).to_dict()
    most = -(-20_009 // survey_mod.SPAN_ITEMS)
    sieved, decided = [], []
    sieve, decide, evaluate = (survey_mod._sieve_values, survey_mod._decide,
                               survey_mod.evaluate_chunk)

    def counted_sieve(quantity, kernel, lo, hi):
        sieved.append(lo)
        return sieve(quantity, kernel, lo, hi)

    def counted_decide(cfg, qs, xs):
        if len(xs):
            decided.append(xs[0])
        return decide(cfg, qs, xs)

    def interrupted(cfg, lo, hi):
        if lo > 3:
            raise KeyboardInterrupt
        return evaluate(cfg, lo, hi)

    monkeypatch.setattr(survey_mod, "_sieve_values", counted_sieve)
    monkeypatch.setattr(survey_mod, "_decide", counted_decide)
    assert run_survey(cfg).to_dict() == want
    assert len(sieved) == len(decided) == most
    sieved.clear()
    decided.clear()
    ckpt = str(tmp_path / "survey.ckpt")
    monkeypatch.setattr(survey_mod, "evaluate_chunk", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_survey(cfg, checkpoint=ckpt)
    monkeypatch.setattr(survey_mod, "evaluate_chunk", evaluate)
    assert len(json.loads(Path(ckpt).read_text())["done"]) == survey_mod.SPAN_ITEMS
    assert run_survey(cfg, checkpoint=ckpt).to_dict() == want
    assert len(sieved) == len(decided) == most


def test_a_new_kernel_frees_the_old_one():
    # the kernel owns the table and every array, and nothing it owns refers
    # back to it: once a survey at a larger range or another base replaces
    # it, it is freed at once, with the cyclic collector off, whichever kind it served.  The
    # O array is built on first use: lambda-lambda and high-factor, which
    # ask for no order, never build it
    enabled = gc.isenabled()
    gc.disable()
    try:
        for kind in KINDS:
            for other in (SurveyConfig(kind=CLASS_COUNTS, x_max=4000),
                          SurveyConfig(kind=CLASS_COUNTS, x_max=2000, e=3)):
                forget_kernel()
                run_survey(SurveyConfig(kind=kind, x_max=3000, chunk=700))
                kernel = orders_mod._survey_kernel(3000, 2, _KINDS[kind].quantity)
                assert ("O" not in kernel._kept) == (kind in (LAMBDA_LAMBDA, HIGH_FACTOR)), kind
                old = weakref.ref(kernel)
                del kernel
                run_survey(other)
                assert old() is None, (kind, other)
    finally:
        if enabled:
            gc.enable()


def test_rsa_pair_order_is_lcm_of_shifted_orders():
    # the survey takes lcm(ord*(e, p-1), ord*(e, l-1)); every decision must
    # match the definition's ord*(e, lcm(p-1, l-1)), taken here from the
    # factorization of lcm(p-1, l-1): the larger exponent of each prime of
    # p-1 and l-1, each factored once, read at those prime powers off a
    # second kernel, not the one the survey reads
    primes = primes_in_range(2, 3001)
    pairs = [(p, l) for l in primes for p in primes if p < l < 2 * p]
    below = {p: factorize(p - 1) for p in primes}
    lcm_powers = {}
    for p, l in pairs:
        merged = dict(below[p].factors)
        for r, a in below[l].factors:
            merged[r] = max(a, merged.get(r, 0))
        lcm_powers[p, l] = [(r, r**a) for r, a in merged.items()]
        assert math.prod(q for _, q in lcm_powers[p, l]) == lcm(p - 1, l - 1)
    for e in (2, 3, 6, 10):
        cfg = SurveyConfig(kind=RSA_PAIR, x_max=3000, e=e)
        kernel, definition = OrderKernel(3000, e), OrderKernel(3000, e)
        for p, l in pairs:
            # ord*(e, m) skips the primes of m that divide e, as coprime_order does
            o = math.lcm(*definition.values("O", lcm_powers[p, l]))
            want = (threshold_sign(cfg, o, p * l) >= 0, ratio_bin(o, p * l), None)
            assert item_decision(cfg, (p, l), kernel) == want, (e, p, l)


def test_the_kinds_sharing_an_array_agree_where_they_meet():
    # the kernel's arrays are shared on three identities, checked here with
    # each side read on a fresh kernel of its own: shifted-prime's q at p is
    # lambda-n's, since lambda(p) = p - 1; class-counts' q at p is ord-n's;
    # and rsa-pair's q at (p, l) is lambda-n's at pl, since lambda(pl) =
    # lcm(p - 1, l - 1)
    def q_at_x(kind, e, x_max):
        """{x: q} over the kind's whole range, read by its population."""
        k = _KINDS[kind]
        qs, xs = k.population(k.quantity, SurveyConfig(kind=kind, e=e, x_max=x_max),
                              OrderKernel(x_max, e), 2, x_max + 1)
        return dict(zip(xs, qs))

    for e in (2, 3, 6):
        lambda_n, ord_n = q_at_x(LAMBDA_N, e, 10**4), q_at_x(ORD_N, e, 10**4)
        shifted, classes = q_at_x(SHIFTED_PRIME, e, 10**4), q_at_x(CLASS_COUNTS, e, 10**4)
        assert len(shifted) == len(classes) == 1229
        assert shifted == {p: lambda_n[p] for p in shifted}, e
        assert classes == {p: ord_n[p] for p in classes}, e
        # lambda-n's q at pl <= 3000^2, by its definition off a fresh kernel
        pairs, lambda_n_at = q_at_x(RSA_PAIR, e, 3000), defined_q(LAMBDA_N, OrderKernel(3000, e))
        assert len(pairs) == rsa_pair_count(3000)
        assert pairs == {pl: lambda_n_at(pl) for pl in pairs}, e


def test_worker_count_invariance_under_spawn(tmp_path):
    # workers started by spawn or forkserver inherit no kept arrays and
    # fill their own: the reports still match for 1, 2 and 3 workers
    script = tmp_path / "spawn_survey.py"
    script.write_text(textwrap.dedent("""
        import json
        import multiprocessing
        import sys

        import ordstat.survey
        from ordstat.survey import SurveyConfig, run_survey

        if __name__ == "__main__":
            multiprocessing.set_start_method(sys.argv[1])
            ordstat.survey.SPAN_ITEMS = 1  # each chunk its own span, so lambda-n is pooled
            configs = (SurveyConfig(kind="lambda-n", x_max=3000, chunk=400),
                       SurveyConfig(kind="rsa-pair", x_max=500, sample_size=40,
                                    seed=11, chunk=100))
            json.dump([[run_survey(cfg, workers=w).to_dict() for w in (1, 2, 3)]
                       for cfg in configs], sys.stdout)
    """))
    src = str(Path(survey_mod.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    want = run_survey(SurveyConfig(kind=LAMBDA_N, x_max=3000)).to_dict()
    for method in ("spawn", "forkserver"):
        proc = subprocess.run([sys.executable, str(script), method], capture_output=True,
                              text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        runs = json.loads(proc.stdout)
        for one_worker, *more_workers in runs:
            assert more_workers == [one_worker] * 2, method
        assert runs[0][0] == want, method


def test_histograms_and_remaining_kinds_match_oracle():
    # every golden field the oracle locks beyond criterion 8's (total, exceed)
    for key, cfg in (
            ("ord-n@100000", SurveyConfig(kind=ORD_N, x_max=10**5)),
            ("shifted-prime@100000", SurveyConfig(kind=SHIFTED_PRIME, x_max=10**5)),
            ("lambda-n@100000", SurveyConfig(kind=LAMBDA_N, x_max=10**5)),
            ("high-factor@100000", SurveyConfig(kind=HIGH_FACTOR, x_max=10**5)),
            ("lambda-lambda@100000", SurveyConfig(kind=LAMBDA_LAMBDA, x_max=10**5)),
            ("one-minus-delta@100000", SurveyConfig(kind=ONE_MINUS_DELTA, x_max=10**5)),
            ("class-counts@100000,histogram", SurveyConfig(kind=CLASS_COUNTS, x_max=10**5)),
            ("class-counts@1000000,histogram", SurveyConfig(kind=CLASS_COUNTS, x_max=10**6)),
            ("rsa-pair@3000", SurveyConfig(kind=RSA_PAIR, x_max=3000)),
            # other bases, where the primes dividing e are skipped
            *((f"{kind}@10000,e={e}", SurveyConfig(kind=kind, x_max=10**4, e=e))
              for e in (3, 6, 10)
              for kind in (ORD_N, LAMBDA_N, ONE_MINUS_DELTA, SHIFTED_PRIME, CLASS_COUNTS)),
            *((f"rsa-pair@3000,e={e}", SurveyConfig(kind=RSA_PAIR, x_max=3000, e=e))
              for e in (3, 6, 10)),
            # the exact-integer tier at t = 3/5 with >= and at the M/H
            # boundary o^10 vs p^7, and the decimal tier at t = 333/1000
            ("shifted-prime@10000,cap=0.1",
             SurveyConfig(kind=SHIFTED_PRIME, x_max=10**4, epsilon=EpsilonFn(cap=0.1))),
            ("class-counts@10000,cap=0.1",
             SurveyConfig(kind=CLASS_COUNTS, x_max=10**4, epsilon=EpsilonFn(cap=0.1))),
            ("lambda-n@10000,exponent=0.333",
             SurveyConfig(kind=LAMBDA_N, x_max=10**4, exponent_override=0.333))):
        want = GOLDEN["surveys"][key]
        got = run_survey(cfg, workers=2).to_dict()
        assert not got["sampled"]
        assert {field: got[field] for field in want} == want, key


def test_trend_windows_match_oracle():
    # dyadic-window exceedance and histograms at the fixed threshold 1/2 are
    # regression-locked
    want = GOLDEN["trend_lambda_n_half"]
    got = {}
    for k in (10, 14, 18):
        cfg = SurveyConfig(kind=LAMBDA_N, x_min=2**k + 1, x_max=2**(k + 1),
                           exponent_override=0.5, chunk=50_000)
        r = run_survey(cfg, workers=2)
        got[f"2^{k}"] = {"total": r.total, "exceed": r.exceed, "histogram": r.histogram}
    assert got == want
    fractions = [got[f"2^{k}"]["exceed"] / got[f"2^{k}"]["total"] for k in (10, 14, 18)]
    assert fractions == sorted(fractions)


def test_reports_match_the_pinned_digests():
    # tools/report_digests.py's digests of the 45-survey matrix and of the
    # classify outputs: a change that moves any report byte moves a pin, and
    # must update it and say why
    path = Path(__file__).resolve().parent.parent / "tools" / "report_digests.py"
    spec = importlib.util.spec_from_file_location("report_digests", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.survey_digest(tool.survey_matrix()) == (
        "d9b18e8d7dbb0c12d6614bff2bcbb20d63954e6ee30c5ca31f517e1da1f49cdf")
    assert hashlib.sha256("".join(tool.classify_outputs()).encode()).hexdigest() == (
        "8f2fa2dee062a33f9f4774bf403da3d1f875913fbec11be916b2381345feb730")
