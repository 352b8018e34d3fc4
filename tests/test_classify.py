import decimal
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from ordstat.arith import primes_in_range
from ordstat.classify import (EpsilonFn, _above, _sqrt_over_log_exponent, ceil_root,
                              classify_prime, order_classes, power_compare)
from ordstat.orders import OrderKernel, coprime_order
from ordstat.survey import CLASS_COUNTS, SurveyConfig, run_survey


def test_epsilon_examples():
    x = math.exp(math.exp(2))  # log log x = 2
    eps = EpsilonFn()
    assert eps(x) == pytest.approx(0.25)
    assert eps(16) == 0.25
    with pytest.raises(ValueError):
        eps(15.9)


def test_epsilon_clamp_semantics():
    # with a large cap the 2/loglog branch is reachable at representable x
    eps = EpsilonFn(cap=0.45)
    assert eps(1e40) == pytest.approx(2.0 / math.log(math.log(1e40)))
    assert eps(1e40) < 0.45
    assert eps(100) == 0.45
    # the default cap keeps the function on the cap through desk scale
    assert EpsilonFn(cap=0.1)(10**9) == 0.1


def test_epsilon_exponent_matches_is_capped_path():
    # exponent() skips the log-log test below 2^64; it must agree with it,
    # and off the cap, where 1/2 + m*eps is irrational, it refuses
    for cap in (0.1, 0.25, 0.5):
        eps = EpsilonFn(cap=cap)
        for x in (16, 10**6, 2**63, 2**64 - 1, 2**64, 10**30):
            for m in (1, 2):
                if eps.is_capped(x):
                    want = Fraction(1, 2) + m * Fraction(str(cap))
                    assert eps.exponent(x, multiplier=m) == want, (cap, x, m)
                else:
                    with pytest.raises(ValueError, match="cap"):
                        eps.exponent(x, multiplier=m)
    assert not EpsilonFn(cap=0.5).is_capped(10**30)  # both branches are swept


def test_epsilon_monotone_nonincreasing():
    eps = EpsilonFn()
    grid = [16 * 1.07**k for k in range(600)]  # up to ~1e19
    values = [eps(x) for x in grid]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_epsilon_constraints_past_their_floor():
    # eps(x) > 1/loglog(x) holds from x0 = exp(exp(1/cap)) on
    eps = EpsilonFn(cap=0.45)
    x0 = math.exp(math.exp(1.0 / eps.cap))
    assert x0 < 1e10
    for x in (x0 * 1.001, 1e12, 1e30, 1e100, 1e300):
        assert eps(x) > 1.0 / math.log(math.log(x)), x
    # slow-decay constraint eps(x^(1/loglog x)) < 2 eps(x)
    for cap in (0.25, 0.45):
        e2 = EpsilonFn(cap=cap)
        for x in (50, 1e3, 1e6, 1e12, 1e40, 1e200):
            inner = x ** (1.0 / math.log(math.log(x)))
            assert e2(max(inner, 16)) < 2 * e2(x), (cap, x)


def test_epsilon_cap_validation():
    for bad in (0.0, -1.0, 0.6):
        with pytest.raises(ValueError):
            EpsilonFn(cap=bad)


def test_classify_examples():
    assert classify_prime(2, 2) == "L"
    assert classify_prime(3, 10) == "L"
    assert classify_prime(7, 2) == "M"


def test_classes_partition_primes():
    # and compute classify and class-counts, both through order_classes,
    # label every prime alike
    for eps, x in ((EpsilonFn(), 100_000), (EpsilonFn(cap=0.1), 10_000)):
        for e in (2, 3, 10):
            labels = Counter()
            for p in primes_in_range(2, x + 1):
                label = classify_prime(p, e, eps)
                assert label in ("L", "M", "H")
                if p in (2, 3, 5) and e % p == 0:
                    assert label == "L"
                labels[label] += 1
            survey = run_survey(SurveyConfig(kind=CLASS_COUNTS, x_max=x, e=e, epsilon=eps))
            assert survey.class_counts == {label: labels[label] for label in "LMH"}, (eps, e)


def test_classify_with_small_cap_yields_high_class():
    # cap 0.1 -> medium/high boundary p^0.7, so large-order primes are H
    eps = EpsilonFn(cap=0.1)
    labels = {p: classify_prime(p, 2, eps) for p in primes_in_range(2, 201)}
    assert labels[11] == "H"  # ord(2,11) = 10 > 11^0.7
    assert "M" in labels.values()


def _two_test_classes(qs, ps, us, lnps, m_to_h):
    """The class rule as two _above columns over every item, each taking
    the L formula and log log p: the reference order_classes must equal."""
    llps = list(map(math.log, lnps))
    above_l = _above(qs, ps, us, lnps, llps, _sqrt_over_log_exponent)
    above_m = _above(qs, ps, us, lnps, llps, m_to_h)
    return ["L" if not l else "H" if m else "M" for l, m in zip(above_l, above_m)]


def test_order_classes_equal_the_two_test_rule():
    # order_classes skips the L formula where q * q > p >= 3 and the H test
    # where m_to_h >= 1: it labels the orders at every prime below 2*10^5,
    # and hand-made columns at p = 2 and 3, at q = isqrt(p) and
    # isqrt(p) + 1, and beside sqrt(p)/log(p), as the two tests over every
    # item do
    x = 2 * 10**5
    primes = primes_in_range(2, x)
    columns = [(OrderKernel(x, e).values("O", [(p, p) for p in primes]), primes)
               for e in (2, 3, 6)]
    hand_q, hand_p = [1, 1, 2, 1, 2, 3], [2, 3, 2, 3, 3, 3]
    for p in primes[2:]:
        r, t = math.isqrt(p), int(math.sqrt(p) / math.log(p))
        hand_q += [r, r + 1, t, t + 1]
        hand_p += [p] * 4
    columns.append((hand_q, hand_p))
    seen = Counter()
    for cap in (0.25, 0.1, 0.02):
        m_to_h = EpsilonFn(cap).exponent(x, multiplier=2)
        for qs, ps in columns:
            lnps = list(map(math.log, ps))
            us = [math.log(q) / lnp for q, lnp in zip(qs, lnps)]
            labels = order_classes(qs, ps, us, lnps, m_to_h)
            assert labels == _two_test_classes(qs, ps, us, lnps, m_to_h), cap
            seen.update(labels)
    assert min(seen[label] for label in "LMH") > 10**4, seen


def _compare(q, x, exact):
    """power_compare's exact sign, which the column function _above, its
    float tier included, must agree with."""
    sign = power_compare(q, x, exact)
    lnx = math.log(x)
    assert _above([q], [x], [math.log(q) / lnx], [lnx], [math.log(lnx)], exact) == [sign > 0]
    return sign


def test_ceil_root_is_the_least_root_at_any_size():
    # the least m with m^b >= p, at and beside exact powers r^b and for
    # random p up to 3,000 bits, with b from 1 to 1,000
    rng = random.Random(20260417)
    for b in (*range(1, 65), *rng.sample(range(65, 1000), 40), 1000):
        for _ in range(4):
            r = rng.getrandbits(rng.randint(1, max(1, 3000 // b)))
            for p in {0, 1, max(r**b - 1, 0), r**b, r**b + 1,
                      rng.getrandbits(rng.randint(1, 3000))}:
                m = ceil_root(p, b)
                assert m >= 0 and m**b >= p and (m == 0 or (m - 1) ** b < p), (p, b)


def test_power_compare_boundaries():
    assert _compare(8, 64, Fraction(1, 2)) == 0
    assert _compare(9, 64, Fraction(1, 2)) == 1
    assert _compare(7, 64, Fraction(1, 2)) == -1
    assert _compare(7, 7, Fraction(1)) == 0
    assert _compare(6, 7, Fraction(1)) == -1
    assert _compare(1000, 10, Fraction(3)) == 0
    # decimal tier: 22 sits on 10^t for t the 16-digit log10(22), whose
    # denominator 10^16 is past the integer tier; the sign is the one the
    # 80-digit value of 10^t gives, on every call
    t = Fraction(repr(math.log10(22)))
    ctx = decimal.Context(prec=80)
    thr = ctx.exp(ctx.multiply(ctx.divide(decimal.Decimal(t.numerator), t.denominator),
                               ctx.ln(decimal.Decimal(10))))
    want = (22 > thr) - (22 < thr)
    assert want != 0 and _compare(22, 10, t) == want == _compare(22, 10, t)


def test_sqrt_over_log_compare():
    # x^t = sqrt(x)/log(x) for the L/M formula
    for p in (3, 7, 101, 99991):
        t = math.sqrt(p) / math.log(p)
        assert _compare(math.floor(t), p, _sqrt_over_log_exponent) <= 0
        assert _compare(math.ceil(t) + 1, p, _sqrt_over_log_exponent) > 0
        lnp = math.log(p)
        assert p ** _sqrt_over_log_exponent(lnp, math.log(lnp), math) == pytest.approx(t)


def test_divisor_quotient_bound_exhaustive_small():
    for n in range(1, 400):
        o_n = coprime_order(2, n)
        for j in range(1, n + 1):
            if n % j == 0:
                assert coprime_order(2, n // j) * j >= o_n, (n, j)
