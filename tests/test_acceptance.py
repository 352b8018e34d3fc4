"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line.  Run with the lines visible:

    pytest -v -s tests/test_acceptance.py

Criteria 6 and 8 compare against tests/golden/oracle_measurements.json,
which is produced by the independent brute-force oracle in
tests/make_goldens.py (regenerate with: python tests/make_goldens.py).
"""

import decimal
import json
import math
import random
import time
from pathlib import Path

import pytest

from ordstat.arith import factorize, lcm, primes_in_range
from ordstat.generators import (LcgSpec, PowerGenSpec, lcg_period_analytic,
                                lcg_period_empirical, power_period_analytic,
                                power_period_empirical)
from ordstat.orders import carmichael_lambda, coprime_order, coprime_part
from ordstat.survey import (CLASS_COUNTS, HIGH_FACTOR, LAMBDA_N, ORD_N,
                            SHIFTED_PRIME, SurveyConfig, run_survey)
import ordstat.survey as survey_mod
from ordstat.cli import survey_result_csv

GOLDEN = json.loads((Path(__file__).parent / "golden" /
                     "oracle_measurements.json").read_text())["surveys"]


def _line(num: int, ok: bool, desc: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {desc}")
    assert ok, f"criterion {num}: {desc}"


def brute_order_step(e: int, m: int) -> int:
    target = 1 % m
    x = e % m
    k = 1
    while x != target:
        x = x * e % m
        k += 1
    return k


def test_criterion_1_order_oracle_equivalence():
    t0 = time.perf_counter()
    mismatches = 0
    for n in range(1, 10**4 + 1):
        for e in (2, 3, 5, 10):
            if coprime_order(e, n) != brute_order_step(e, coprime_part(n, e)):
                mismatches += 1
    elapsed = time.perf_counter() - t0
    _line(1, mismatches == 0 and elapsed < 60,
          f"ord* equals brute-force stepping for n <= 1e4, e in 2,3,5,10 "
          f"({mismatches} mismatches, {elapsed:.1f}s)")


def _enumerated_group_exponent(n: int) -> int:
    """Max element order mod n over every unit, independent of the
    prime-power lambda rule: trial-division phi, then per-element descent.
    A unit a with a^best = 1 has an order dividing best, so it cannot raise
    the maximum and is skipped."""
    if n == 1:
        return 1
    phi = 1
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            k = 0
            while m % p == 0:
                m //= p
                k += 1
            phi *= (p - 1) * p ** (k - 1)
        p += 1
    if m > 1:
        phi *= m - 1
    qs = []
    t = phi
    q = 2
    while q * q <= t:
        if t % q == 0:
            qs.append(q)
            while t % q == 0:
                t //= q
        q += 1
    if t > 1:
        qs.append(t)
    best = 1
    for a in range(1, n):
        if math.gcd(a, n) != 1 or pow(a, best, n) == 1:
            continue
        k = phi
        for q in qs:
            while k % q == 0 and pow(a, k // q, n) == 1:
                k //= q
        if k > best:
            best = k
    return best


def test_criterion_2_lambda_oracle_equivalence():
    mismatches = 0
    for n in range(1, 5001):
        if carmichael_lambda(factorize(n)) != _enumerated_group_exponent(n):
            mismatches += 1
    _line(2, mismatches == 0,
          f"lambda equals enumerated max element order for n <= 5000 "
          f"({mismatches} mismatches)")


def test_criterion_3_power_period_equivalence():
    violations = 0
    for n in range(2, 5001):
        for e in (2, 3, 10):
            for u0 in (2, 3, 7):
                if u0 % n == 0:
                    continue
                spec = PowerGenSpec(e=e, n=n, u0=u0)
                cyc = power_period_empirical(spec)
                if cyc.period != power_period_analytic(spec):
                    violations += 1
                if cyc.tail > n.bit_length():  # floor(log2 n) + 1
                    violations += 1
    _line(3, violations == 0,
          f"power-generator period formula and tail bound for n <= 5000 "
          f"({violations} violations)")


def _lcg_orbits(e: int, b: int, n: int) -> list[tuple[int, int]]:
    """Exact (tail, period) of u -> e*u + b mod n from u0 = 0 and from
    u0 = 1, each term walked once: a table holds every term's first-visit
    index, and the walk from 1 stops at the first term either walk saw."""
    first = [-1] * n
    out: list[tuple[int, int]] = []
    i = 0
    for u in (0, 1):
        start = i
        while first[u] < 0:
            first[u] = i
            u = (e * u + b) % n
            i += 1
        j = first[u]
        if j >= start:  # a cycle of this walk's own
            out.append((j - start, i - j))
        else:  # joined the walk from 0 at its j-th term
            tail0, period0 = out[0]
            out.append((i - start + max(0, tail0 - j), period0))
    return out


def test_criterion_4_lcg_contract():
    violations = mismatches = 0
    for n in range(2, 5001):
        for e in (2, 3):
            for b in (0, 1, 7):
                orbits = _lcg_orbits(e, b % n, n)
                for u0 in (0, 1):
                    spec = LcgSpec(e=e, b=b, n=n, u0=u0)
                    info = lcg_period_analytic(spec)
                    tail, period = orbits[u0]
                    if n <= 300:  # the walk against Brent cycle detection
                        cyc = lcg_period_empirical(spec)
                        mismatches += (cyc.tail, cyc.period) != (tail, period)
                    if info.exact is not None and period != info.exact:
                        violations += 1
                    if info.divisor_bound % period != 0:
                        violations += 1
    _line(4, violations == mismatches == 0,
          f"LCG exact-period conditions and divisor bound over the grid "
          f"({violations} violations, {mismatches} orbit walks unlike Brent)")


def test_criterion_5_exact_inequalities():
    t0 = time.perf_counter()
    violations = 0

    # order product bound over all n <= 1e5, e in {2, 3}
    ord_p = {2: {}, 3: {}}
    for n in range(1, 10**5 + 1):
        f = factorize(n)
        lam = carmichael_lambda(f)
        for e in (2, 3):
            prod = 1
            memo = ord_p[e]
            for p in f.primes():
                o = memo.get(p)
                if o is None:
                    o = memo[p] = coprime_order(e, p)
                prod *= o
            if coprime_order(e, n) * n < lam * prod:
                violations += 1
    product_violations = violations

    # lcm order bound for 1e4 random pairs <= 1e4
    rng = random.Random(20140901)
    ord_memo = {2: {}, 3: {}}
    lam_memo = {}

    def lam_of(v):
        r = lam_memo.get(v)
        if r is None:
            r = lam_memo[v] = carmichael_lambda(factorize(v))
        return r

    def ord_of(e, v):
        r = ord_memo[e].get(v)
        if r is None:
            r = ord_memo[e][v] = coprime_order(e, v)
        return r

    for _ in range(10**4):
        a = rng.randrange(1, 10**4 + 1)
        b = rng.randrange(1, 10**4 + 1)
        m = lcm(a, b)
        for e in (2, 3):
            lhs = ord_of(e, m) * lam_of(a) * lam_of(b)
            rhs = ord_of(e, a) * ord_of(e, b) * lam_of(m)
            if lhs < rhs:
                violations += 1
    lcm_violations = violations - product_violations

    # divisor quotient bound for all n <= 1e4 and every divisor, e = 2
    ord2 = [0] * (10**4 + 1)
    for m in range(1, 10**4 + 1):
        ord2[m] = ord_memo[2].get(m) or coprime_order(2, m)
    for n in range(1, 10**4 + 1):
        for j in _divisors(factorize(n)):
            if ord2[n // j] * j < ord2[n]:
                violations += 1
    quotient_violations = violations - product_violations - lcm_violations

    elapsed = time.perf_counter() - t0
    _line(5, violations == 0 and elapsed < 600,
          f"exact inequality suites: order-product {product_violations}, "
          f"lcm-order {lcm_violations}, divisor-quotient {quotient_violations} "
          f"violations ({elapsed:.1f}s)")


def _divisors(f):
    divs = [1]
    for p, a in f.factors:
        divs = [d * p**k for d in divs for k in range(a + 1)]
    return divs


def test_criterion_6_partition_and_class_trend():
    fractions = []
    ok = True
    for x in (10**4, 10**5, 10**6):
        r = run_survey(SurveyConfig(kind=CLASS_COUNTS, x_max=x), workers=2)
        pi_x = len(primes_in_range(2, x + 1))
        counts = r.class_counts
        ok &= sum(counts.values()) == pi_x
        ok &= counts == GOLDEN[f"class-counts@{x}"]
        fractions.append(counts["L"] / pi_x)
    ok &= all(a >= b for a, b in zip(fractions, fractions[1:]))
    _line(6, ok,
          "class partition sums to pi(x) at 1e4/1e5/1e6, matches the oracle "
          f"golden triples, and the L fraction is non-increasing {fractions}")


def test_criterion_7_survey_determinism(tmp_path, monkeypatch):
    cfg = SurveyConfig(kind=LAMBDA_N, x_max=10**5)
    outputs = []
    for workers in (1, 4, 8):
        r = run_survey(cfg, workers=workers)
        outputs.append(json.dumps(r.to_dict(), sort_keys=True).encode()
                       + survey_result_csv(r).encode())

    ckpt = str(tmp_path / "resume.ckpt")
    real = survey_mod.evaluate_chunk
    calls = {"n": 0}

    def interrupt_after_four(cfg, lo, hi):
        if calls["n"] == 4:
            raise KeyboardInterrupt
        calls["n"] += 1
        return real(cfg, lo, hi)

    monkeypatch.setattr(survey_mod, "evaluate_chunk", interrupt_after_four)
    with pytest.raises(KeyboardInterrupt):
        run_survey(cfg, checkpoint=ckpt)
    monkeypatch.setattr(survey_mod, "evaluate_chunk", real)
    resumed = run_survey(cfg, checkpoint=ckpt)
    outputs.append(json.dumps(resumed.to_dict(), sort_keys=True).encode()
                   + survey_result_csv(resumed).encode())

    ok = all(o == outputs[0] for o in outputs[1:])
    _line(7, ok, "lambda-n survey at 1e5 is byte-identical for 1/4/8 workers "
                 "and for an interrupted-then-resumed run")


def test_criterion_8_golden_measurements():
    ok = True
    details = []
    for kind, key in ((ORD_N, "ord-n@100000"),
                      (SHIFTED_PRIME, "shifted-prime@100000"),
                      (LAMBDA_N, "lambda-n@100000"),
                      (HIGH_FACTOR, "high-factor@100000")):
        r = run_survey(SurveyConfig(kind=kind, x_max=10**5), workers=2)
        want = GOLDEN[key]
        ok &= (r.total, r.exceed) == (want["total"], want["exceed"])
        details.append(f"{kind} {r.exceed}/{r.total}")
        if kind == HIGH_FACTOR:
            ok &= r.exceed > 0
    _line(8, ok, "survey fractions at 1e5 match the pre-build oracle exactly "
                 f"({'; '.join(details)}; high-factor fraction positive)")


def test_criterion_9_worked_instance_209():
    lam = carmichael_lambda(factorize(209))
    lamlam = carmichael_lambda(factorize(lam))
    o = coprime_order(2, lam)
    ctx = decimal.Context(prec=50)
    oracle_stat = float(ctx.divide(ctx.ln(decimal.Decimal(12)),
                                   ctx.ln(decimal.Decimal(209))))
    stat = math.log(o) / math.log(209)
    ok = (lam == 90 and lamlam == 12 and o == 12
          and abs(stat - oracle_stat) < 1e-12)
    _line(9, ok, f"n = 209 pipeline: lambda 90, lambda(lambda) 12, ord* 12, "
                 f"statistic {stat:.12f} within 1e-12 of the 50-digit value")
