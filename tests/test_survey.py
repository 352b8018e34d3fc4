import decimal
import functools
import itertools
import json
import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import ordstat.orders as orders_mod
import ordstat.survey as survey_mod
from ordstat.arith import factorize, lcm, primes_in_range
from ordstat.classify import EpsilonFn, power_compare
from ordstat.orders import OrderKernel, carmichael_lambda, coprime_order
from ordstat.survey import (_KINDS, CLASS_COUNTS, KINDS, CheckpointError, HIGH_FACTOR,
                            LAMBDA_LAMBDA, LAMBDA_N, ONE_MINUS_DELTA, ORD_N,
                            RSA_PAIR, SHIFTED_PRIME,
                            SurveyConfig, empty_result, evaluate_chunk,
                            evaluate_item, log_ratio_bin, merge_results,
                            plan_chunks, rsa_pair_count, run_survey)

GOLDEN = json.loads((Path(__file__).parent / "golden" / "oracle_measurements.json").read_text())


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


def test_shifted_prime_small():
    r = run_survey(SurveyConfig(kind=SHIFTED_PRIME, x_max=10))
    assert r.total == 4  # every prime <= 10 evaluated
    # p = 7 under the default epsilon: ord*(2, 6) = 2 < 7^(3/4)
    exceeds, _, _ = evaluate_item(SurveyConfig(kind=SHIFTED_PRIME, x_max=10), 7,
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


def test_high_factor_items():
    cfg = SurveyConfig(kind=HIGH_FACTOR, x_max=100)
    exceeds, _, _ = evaluate_item(cfg, 23, OrderKernel(100, 2))
    assert exceeds  # 22 = 2*11 and 11 > 23^0.677
    exceeds, _, _ = evaluate_item(cfg, 2, OrderKernel(100, 2))
    assert not exceeds


def test_one_minus_delta_threshold():
    cfg = SurveyConfig(kind=ONE_MINUS_DELTA, x_max=1000)
    r = run_survey(cfg)
    assert r.total == 985
    # threshold is 1 - sqrt(log log x / log x), rising toward 1
    ts = []
    for x in (100, 10**5, 10**9):
        t = _KINDS[ONE_MINUS_DELTA].exponent(x)
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
    def fixed_order(o):  # a kernel whose ord() is o for every argument
        return SimpleNamespace(lam=lambda n: n, ord=lambda m: o)

    def decide(o, n):
        cfg = SurveyConfig(kind=ONE_MINUS_DELTA, x_max=n)
        return evaluate_item(cfg, n, fixed_order(o))[0]

    # near-ties at survey scale: the float threshold lands within the 1e-9 band
    ties = []
    for n in itertools.count(10**8):
        t = _KINDS[ONE_MINUS_DELTA].exponent(n)
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
    t = _KINDS[ONE_MINUS_DELTA].exponent(n)
    ctx = decimal.Context(prec=80)
    lnn = ctx.ln(decimal.Decimal(n))
    true_thr = ctx.exp(ctx.multiply(ctx.subtract(
        decimal.Decimal(1), ctx.sqrt(ctx.divide(ctx.ln(lnn), lnn))), lnn))
    repr_thr = ctx.exp(ctx.multiply(decimal.Decimal(repr(t)), lnn))
    assert abs(true_thr - repr_thr) > 10**100
    o = int((true_thr + repr_thr) / 2)
    assert abs(o - math.exp(t * math.log(n))) <= 1e-9 * math.exp(t * math.log(n))
    assert decide(o, n) == _one_minus_delta_oracle(o, n)


def test_class_counts_partition():
    r = run_survey(SurveyConfig(kind=CLASS_COUNTS, x_max=1000))
    assert sum(r.class_counts.values()) == 168
    assert r.class_counts["L"] == 1
    assert r.exceed == r.class_counts["H"]
    assert sum(r.histogram) == r.total  # order statistic recorded per prime


def test_rsa_pair_full_enumeration():
    cfg = SurveyConfig(kind=RSA_PAIR, x_max=19, chunk=5)
    chunks = plan_chunks(cfg)
    pairs = [item for lo, hi in chunks for item in _KINDS[RSA_PAIR].items(cfg, lo, hi)]
    assert (11, 19) in pairs
    assert all(p < l < 2 * p for p, l in pairs)
    r = run_survey(cfg)
    assert r.total == len(pairs) == rsa_pair_count(19)
    assert not r.sampled
    # pair (11, 19): lambda(209) = lcm(10, 18) = 90, ord*(2, 90) = 12 < 209^(3/4)
    exceeds, _, _ = evaluate_item(cfg, (11, 19), OrderKernel(19, 2))
    assert not exceeds


def test_rsa_pair_sampling_is_deterministic():
    cfg = SurveyConfig(kind=RSA_PAIR, x_max=500, sample_size=40, seed=11)
    r1 = run_survey(cfg)
    assert r1.sampled and r1.total == 40
    r2 = run_survey(SurveyConfig(kind=RSA_PAIR, x_max=500, sample_size=40, seed=11,
                                 chunk=13), workers=2)
    d1, d2 = r1.to_dict(), r2.to_dict()
    assert d1 == d2
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
        assert cfg._threshold == (0.5 + cap, Fraction(1, 2) + Fraction(str(cap)))
    # the other kinds need no constant eps exponent
    for kind in (HIGH_FACTOR, ONE_MINUS_DELTA, LAMBDA_LAMBDA):
        SurveyConfig(kind=kind, x_max=10**200, epsilon=EpsilonFn(cap=0.5))
    SurveyConfig(kind=ORD_N, x_max=2**80, epsilon=EpsilonFn(cap=0.5), exponent_override=0.5)


def test_exponent_override_conflicts():
    for kind in (LAMBDA_LAMBDA, ONE_MINUS_DELTA, CLASS_COUNTS):
        with pytest.raises(ValueError):
            SurveyConfig(kind=kind, x_max=100, exponent_override=0.5)


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


def test_run_survey_worker_and_chunk_invariance():
    base = run_survey(SurveyConfig(kind=LAMBDA_N, x_max=3000, chunk=3000)).to_dict()
    for chunk, workers in ((7, 1), (100, 2), (1000, 3)):
        cfg = SurveyConfig(kind=LAMBDA_N, x_max=3000, chunk=chunk)
        assert run_survey(cfg, workers=workers).to_dict() == base


def test_log_ratio_bin_edges():
    assert log_ratio_bin(1, 50) == 0
    assert log_ratio_bin(8, 64) == 10   # exactly 0.5 goes to bin [0.50, 0.55)
    assert log_ratio_bin(7, 64) < 10
    assert log_ratio_bin(63, 64) == 19
    assert log_ratio_bin(64, 64) == 20  # statistic 1.0
    assert log_ratio_bin(10**9, 4) == 20  # clamped to the top bin
    # near-edges closer than any fixed precision are decided by q^20 < n^k
    assert log_ratio_bin(2**200, 2**400 + 1) == 9
    assert log_ratio_bin(2**200 + 1, 2**400) == 10


def test_item_decisions_reproducible():
    cfg = SurveyConfig(kind=ORD_N, x_max=500)
    r = run_survey(cfg)
    recount = 0
    for n in range(16, 501):
        o = coprime_order(2, n)
        t, exact = cfg._threshold
        from ordstat.classify import power_compare
        if power_compare(o, n, t, exact) > 0:
            recount += 1
    assert recount == r.exceed


def test_checkpoint_resume_and_errors(tmp_path, monkeypatch):
    cfg = SurveyConfig(kind=ORD_N, x_max=2000, chunk=200)
    clean = run_survey(cfg).to_dict()
    ckpt = str(tmp_path / "survey.ckpt")

    calls = {"n": 0}
    real = survey_mod.evaluate_chunk

    def explode_after_three(cfg, lo, hi):
        if calls["n"] == 3:
            raise KeyboardInterrupt
        calls["n"] += 1
        return real(cfg, lo, hi)

    monkeypatch.setattr(survey_mod, "evaluate_chunk", explode_after_three)
    with pytest.raises(KeyboardInterrupt):
        run_survey(cfg, checkpoint=ckpt)
    monkeypatch.setattr(survey_mod, "evaluate_chunk", real)

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


def test_rsa_pair_order_is_lcm_of_shifted_orders():
    # the survey takes lcm(ord*(e, p-1), ord*(e, l-1)); every decision must
    # match the definition's ord*(e, lcm(p-1, l-1))
    primes = primes_in_range(2, 3001)
    pairs = [(p, l) for l in primes for p in primes if p < l < 2 * p]
    for e in (2, 3, 6, 10):
        cfg = SurveyConfig(kind=RSA_PAIR, x_max=3000, e=e)
        kernel = OrderKernel(3000, e)
        for p, l in pairs:
            o = coprime_order(e, lcm(p - 1, l - 1))
            t, exact = cfg._threshold
            want = (power_compare(o, p * l, t, exact) >= 0, log_ratio_bin(o, p * l), None)
            assert evaluate_item(cfg, (p, l), kernel) == want, (e, p, l)


def test_worker_count_invariance_under_spawn(tmp_path):
    script = tmp_path / "spawn_survey.py"
    script.write_text(textwrap.dedent("""
        import json
        import multiprocessing
        import sys

        from ordstat.survey import SurveyConfig, run_survey

        if __name__ == "__main__":
            multiprocessing.set_start_method("spawn")
            configs = (SurveyConfig(kind="lambda-n", x_max=3000, chunk=400),
                       SurveyConfig(kind="rsa-pair", x_max=500, sample_size=40,
                                    seed=11, chunk=100))
            json.dump([[run_survey(cfg, workers=w).to_dict() for w in (1, 2)]
                       for cfg in configs], sys.stdout)
    """))
    src = str(Path(survey_mod.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, str(script)], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    runs = json.loads(proc.stdout)
    for one_worker, two_workers in runs:
        assert one_worker == two_workers
    assert runs[0][0] == run_survey(SurveyConfig(kind=LAMBDA_N, x_max=3000)).to_dict()


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
            ("rsa-pair@3000", SurveyConfig(kind=RSA_PAIR, x_max=3000)),
            ("ord-n@10000,e=6", SurveyConfig(kind=ORD_N, x_max=10**4, e=6))):
        want = GOLDEN["surveys"][key]
        got = run_survey(cfg, workers=2).to_dict()
        assert not got["sampled"]
        assert {field: got[field] for field in want} == want, key


def test_trend_windows_match_oracle():
    # dyadic-window exceedance at the fixed threshold 1/2 is regression-locked
    want = GOLDEN["trend_lambda_n_half"]
    got = {}
    for k in (10, 14, 18):
        cfg = SurveyConfig(kind=LAMBDA_N, x_min=2**k + 1, x_max=2**(k + 1),
                           exponent_override=0.5, chunk=50_000)
        r = run_survey(cfg, workers=2)
        got[f"2^{k}"] = {"total": r.total, "exceed": r.exceed}
    assert got == want
    fractions = [got[f"2^{k}"]["exceed"] / got[f"2^{k}"]["total"] for k in (10, 14, 18)]
    assert fractions == sorted(fractions)
