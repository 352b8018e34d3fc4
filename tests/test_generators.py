import math
import random

import pytest

from ordstat.arith import factorize
from ordstat.generators import (CycleResult, LcgSpec, PowerGenSpec,
                                brent_cycle, lcg_iterate, lcg_period_analytic,
                                lcg_period_empirical, max_seed_period,
                                power_period_analytic, power_period_empirical)
from ordstat.orders import coprime_order


def orbit_scan(step, x0):
    """Independent tail/period oracle: walk until a state repeats."""
    seen = {}
    u, i = x0, 0
    while u not in seen:
        seen[u] = i
        u = step(u)
        i += 1
    return CycleResult(tail=seen[u], period=i - seen[u])


def test_lcg_iterate_examples():
    spec = LcgSpec(e=3, b=1, n=10, u0=0)
    assert [lcg_iterate(spec, i) for i in range(5)] == [0, 1, 4, 3, 0]
    spec = LcgSpec(e=2, b=0, n=5, u0=0)
    assert all(lcg_iterate(spec, i) == 0 for i in range(6))
    spec = LcgSpec(e=2, b=1, n=5, u0=0)
    assert [lcg_iterate(spec, i) for i in range(5)] == [0, 1, 3, 2, 0]


def test_lcg_period_analytic_examples():
    info = lcg_period_analytic(LcgSpec(e=2, b=1, n=5, u0=0))
    assert (info.exact, info.divisor_bound) == (4, 4)
    info = lcg_period_analytic(LcgSpec(e=3, b=1, n=10, u0=0))
    assert (info.exact, info.divisor_bound) == (None, 8)
    info = lcg_period_analytic(LcgSpec(e=2, b=0, n=5, u0=1))
    assert info.exact == 4  # closed form u_i = 2^i mod 5


def test_lcg_period_empirical_examples():
    assert lcg_period_empirical(LcgSpec(e=3, b=1, n=10, u0=0)) == CycleResult(0, 4)
    assert lcg_period_empirical(LcgSpec(e=2, b=0, n=8, u0=1)) == CycleResult(3, 1)
    assert lcg_period_empirical(LcgSpec(e=2, b=0, n=5, u0=0)) == CycleResult(0, 1)


def test_power_period_analytic_examples():
    assert power_period_analytic(PowerGenSpec(e=2, n=11, u0=3)) == 4
    # any seed of maximal order mod 209 gives ord*(2, 90) = 12
    seeds = [u for u in range(2, 209) if coprime_order(u, 209) == 90]
    assert seeds
    for u in seeds[:5]:
        assert power_period_analytic(PowerGenSpec(e=2, n=209, u0=u)) == 12
    assert power_period_analytic(PowerGenSpec(e=5, n=2, u0=7)) == 1
    # n is past 2^64, but its part coprime to the seed is 5: ord(3, ord(2, 5))
    assert power_period_analytic(PowerGenSpec(e=3, n=5 * 2**70, u0=2)) == 2


def test_power_period_empirical_examples():
    assert power_period_empirical(PowerGenSpec(e=2, n=11, u0=3)) == CycleResult(0, 4)
    spec = PowerGenSpec(e=2, n=21, u0=4)
    assert power_period_empirical(spec) == orbit_scan(spec.step, spec.u0)
    assert power_period_empirical(PowerGenSpec(e=2, n=2, u0=3)).period == 1


def test_max_seed_period_examples():
    assert max_seed_period(2, 209) == 12
    assert max_seed_period(2, 7) == 2
    for e in (2, 3, 10):
        assert max_seed_period(e, 2) == 1
    # lambda(125) = 100 = 2^2 * 5^2: the 5s come from n, not from p - 1 = 4
    assert max_seed_period(3, 125) == 20
    from ordstat.orders import carmichael_lambda
    for n in range(2, 3000):
        lam = carmichael_lambda(factorize(n))
        for e in (2, 3, 10):
            assert max_seed_period(e, n) == coprime_order(e, lam), (e, n)


def test_power_period_formula_small_grid():
    for n in range(2, 400):
        for e in (2, 3, 6, 10):
            for u0 in (2, 3, 6, 7, 12):
                if u0 % n == 0:
                    continue
                spec = PowerGenSpec(e=e, n=n, u0=u0)
                cyc = power_period_empirical(spec)
                assert cyc.period == power_period_analytic(spec), (e, n, u0)
                assert cyc.tail <= n.bit_length(), (e, n, u0)


def test_lcg_contract_small_grid():
    for n in range(2, 300):
        for e in (2, 3):
            for b in (0, 1, 7):
                for u0 in (0, 1):
                    spec = LcgSpec(e=e, b=b, n=n, u0=u0)
                    info = lcg_period_analytic(spec)
                    cyc = lcg_period_empirical(spec)
                    if info.exact is not None:
                        assert cyc.period == info.exact, spec
                    assert info.divisor_bound % cyc.period == 0, spec


def test_seed_robustness_inequality():
    # period for any seed is at least the maximal-seed period divided by
    # the order deficiency j = lambda(n) / coprime_order(u0, n)
    from ordstat.orders import carmichael_lambda
    rng = random.Random(3)
    for n in range(2, 3001):
        lam = carmichael_lambda(factorize(n))
        best = max_seed_period(2, n)
        pool = range(2, n) if n > 2 else [3]
        seeds = rng.sample(pool, min(20, len(pool)))
        for u0 in seeds:
            o_u = coprime_order(u0, n)
            assert lam % o_u == 0, (n, u0)
            j = lam // o_u
            period = power_period_analytic(PowerGenSpec(e=2, n=n, u0=u0))
            assert period * j >= best, (n, u0)


def test_brent_cycle_matches_orbit_scan_on_random_maps():
    rng = random.Random(99)
    for trial in range(300):
        size = rng.randrange(1, 60)
        table = [rng.randrange(size) for _ in range(size)]
        x0 = rng.randrange(size)
        step = lambda x: table[x]
        assert brent_cycle(step, x0) == orbit_scan(step, x0), (trial, table, x0)


def test_spec_validation():
    with pytest.raises(ValueError):
        LcgSpec(e=1, b=0, n=10, u0=0)
    with pytest.raises(ValueError):
        PowerGenSpec(e=2, n=10, u0=1)  # seed must be >= 2 before reduction
    assert PowerGenSpec(e=2, n=5, u0=7).u0 == 2
    assert LcgSpec(e=2, b=13, n=10, u0=23).b == 3
