import decimal
import math
from collections import Counter
from fractions import Fraction

import pytest

from ordstat.arith import factorize, primes_in_range
from ordstat.classify import (EpsilonFn, _above, _sqrt_over_log_exponent, classify_prime,
                              lcm_order_lower_bound, power_compare,
                              prime_orders_lower_bound)
from ordstat.orders import carmichael_lambda, coprime_order
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


def _compare(q, x, exact):
    """power_compare's exact sign, which the column function _above, its
    float tier included, must agree with."""
    sign = power_compare(q, x, exact)
    lnx = math.log(x)
    assert _above([q], [x], [math.log(q) / lnx], [lnx], [math.log(lnx)], exact) == [sign > 0]
    return sign


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


def test_prime_orders_lower_bound_examples():
    assert prime_orders_lower_bound(2, 15) == Fraction(32, 15)
    # 90 = 2 * 3^2 * 5: lambda = 12; ord(6, 5) = 1 and 2, 3 divide the base
    assert prime_orders_lower_bound(6, 90) == Fraction(2, 15)
    assert prime_orders_lower_bound(7, 90) == Fraction(12 * 4, 90)  # ord(7, 5) = 4
    for e in (2, 3, 10):
        assert prime_orders_lower_bound(e, 1) == 1
    assert prime_orders_lower_bound(2, 7) == Fraction(18, 7)
    assert coprime_order(2, 7) >= prime_orders_lower_bound(2, 7)


def test_prime_orders_lower_bound_holds_exactly():
    for n in range(1, 3000):
        f = factorize(n)
        for e in (2, 3):
            bound = prime_orders_lower_bound(e, n)
            assert coprime_order(e, n) >= bound, (e, n)
            prod = math.prod(coprime_order(e, p) for p in f.primes())
            assert bound == Fraction(carmichael_lambda(f) * prod, n), (e, n)


def test_lcm_order_lower_bound():
    # a = b: bound collapses to ord^2 / lambda(a) <= ord
    for e in (2, 3):
        for a in (6, 10, 45, 90):
            bound = lcm_order_lower_bound(e, a, a)
            o = coprime_order(e, a)
            assert bound <= o
            assert bound == Fraction(o * o, carmichael_lambda(factorize(a))), (e, a)
    # ord*(2, 6) = 2, ord*(2, 10) = 4, lambda(30) = 4, lambda(6) = 2, lambda(10) = 4
    bound = lcm_order_lower_bound(2, 6, 10)
    assert bound == 4
    assert coprime_order(2, 30) >= bound
    # pl = 209: lambda(lambda(209)) = lambda(90), bound ord*(2, lcm(10, 18))
    bound = lcm_order_lower_bound(2, 10, 18)
    assert coprime_order(2, 90) == 12
    assert bound == 12
    assert lcm_order_lower_bound(3, 1, 1) == 1


def test_lcm_order_lower_bound_random_pairs():
    import random
    rng = random.Random(5)
    for _ in range(2000):
        a = rng.randrange(1, 2000)
        b = rng.randrange(1, 2000)
        for e in (2, 3):
            m = a // math.gcd(a, b) * b
            bound = lcm_order_lower_bound(e, a, b)
            assert coprime_order(e, m) >= bound, (e, a, b)
            # the defining formula, each quantity computed on its own
            lam = [carmichael_lambda(factorize(v)) for v in (m, a, b)]
            want = Fraction(coprime_order(e, a) * coprime_order(e, b) * lam[0], lam[1] * lam[2])
            assert bound == want, (e, a, b)


def test_divisor_quotient_bound_exhaustive_small():
    for n in range(1, 400):
        o_n = coprime_order(2, n)
        for j in range(1, n + 1):
            if n % j == 0:
                assert coprime_order(2, n // j) * j >= o_n, (n, j)
