#!/usr/bin/env python3
"""Regenerate tests/golden/oracle_measurements.json.

Standalone brute-force oracle for the survey golden files.  This script is
deliberately independent of the ordstat package: it imports nothing from
src/, uses a plain trial-division factorizer, and finds multiplicative
orders by scanning the sorted divisors of phi(m) in ascending order
(ordstat itself descends per prime power from p - 1, so the two paths
share no code and no algorithm).

All exceedance comparisons here are exact integer comparisons: with the
default epsilon cap of 1/4 every threshold exponent at desk scale is the
rational 3/4 (or 1/2 for the fixed-threshold trend windows, 677/1000 for
the large-factor survey, 3/5 and 7/10 for the shifted-prime and L/M/H keys
at cap 1/10, 333/1000 for a fixed exponent 0.333), so k > n^(a/b) is
decided as k^b > n^a.
Histogram bins are exact too: the 0.05-wide bin of log(q)/log(n) is the
largest b <= 20 with n^b <= q^20.  The only float comparisons left are the
sqrt(p)/log(p) class boundary and the lambda-lambda threshold
n / exp((log log n)^3); the script asserts that no value sits within 1e-6
relative distance of either.  The two quantities that are not rational, the
one-minus-delta threshold n^(1 - sqrt(log log n / log n)) and the
lambda-lambda deficiency bin, are decided on logarithms in 60-digit decimal,
asserting that every decision clears its boundary by more than 1e-40.

Run from the repository root:

    python tests/make_goldens.py           # rewrite the golden file
    python tests/make_goldens.py --check   # recompute, diff, write nothing

Takes about a minute and a half.  --check exits 1 if any recomputed value
differs from the committed file.
"""

import argparse
import decimal
import functools
import json
import math
import sys
import time
from pathlib import Path

OUT_PATH = Path(__file__).parent / "golden" / "oracle_measurements.json"

EPS_CAP = 0.25  # default epsilon cap; capped everywhere below x ~ e^(e^8)

DEC = decimal.Context(prec=60)
DEC_MARGIN = decimal.Decimal("1e-40")  # far above the 60-digit rounding error


def factorize_trial(n):
    """Prime factorization by pure trial division, as a {prime: exp} dict."""
    fac = {}
    while n % 2 == 0:
        fac[2] = fac.get(2, 0) + 1
        n //= 2
    p = 3
    while p * p <= n:
        while n % p == 0:
            fac[p] = fac.get(p, 0) + 1
            n //= p
        p += 2
    if n > 1:
        fac[n] = fac.get(n, 0) + 1
    return fac


def euler_phi(n):
    result = 1
    for p, a in factorize_trial(n).items():
        result *= (p - 1) * p ** (a - 1)
    return result


def lambda_formula(n):
    """Carmichael function from the prime-power rule; the rule itself is
    validated against exhaustive group enumeration in the acceptance suite."""
    result = 1
    for p, a in factorize_trial(n).items():
        if p == 2:
            lam = 1 if a == 1 else (2 if a == 2 else 2 ** (a - 2))
        else:
            lam = (p - 1) * p ** (a - 1)
        result = result * lam // math.gcd(result, lam)
    return result


def sorted_divisors(n):
    divs = [1]
    for p, a in factorize_trial(n).items():
        divs = [d * p**k for d in divs for k in range(a + 1)]
    divs.sort()
    return divs


def coprime_part(n, e):
    g = math.gcd(n, e)
    while g > 1:
        while n % g == 0:
            n //= g
        g = math.gcd(n, e)
    return n


def order_scan(e, m):
    """ord(e, m) by first-hit scan over the ascending divisors of phi(m)."""
    if m == 1:
        return 1
    for d in sorted_divisors(euler_phi(m)):
        if pow(e, d, m) == 1:
            return d
    raise AssertionError(f"no order found for e={e} m={m}")


def order_coprime(e, n):
    return order_scan(e, coprime_part(n, e))


def simple_sieve(limit):
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return [i for i, f in enumerate(flags) if f]


def epsilon(x, cap=EPS_CAP):
    xc = max(x, 16.0)
    return min(cap, 2.0 / math.log(math.log(xc)))


def exceeds_power(k, n, strict, a=3, b=4):
    """k > n^(a/b) (or >=) as an exact integer comparison; a/b = 3/4 is
    1/2 + eps(n) with the default cap."""
    lhs, rhs = k**b, n**a
    return lhs > rhs if strict else lhs >= rhs


def exact_bin(q, n):
    """Histogram bin of log(q)/log(n) in 0.05-wide bins, from integers only:
    the largest b <= 20 with n^b <= q^20 (so values above 1 land in bin 20)."""
    if q <= 1:
        return 0
    q20 = q**20
    b = 0
    while b < 20 and n ** (b + 1) <= q20:
        b += 1
    return b


def lambda_lambda_exceeds(n):
    """lambda(lambda(n)) > n / exp((log log n)^3), in floats, asserting that
    no value sits within 1e-6 relative distance of the threshold."""
    lamlam = lambda_formula(lambda_formula(n))
    t = n * math.exp(-math.log(math.log(n)) ** 3)
    assert abs(lamlam - t) > 1e-6 * max(t, 1.0), (n, lamlam, t)
    return lamlam > t


@functools.lru_cache(maxsize=None)
def dec_ln(n):
    """ln(n) in 60-digit decimal; survey values repeat, so memoized."""
    return DEC.ln(decimal.Decimal(n))


def one_minus_delta_exceeds(o, n):
    """o > n^(1 - sqrt(log log n / log n)), decided as the sign of
    ln(o) - t*ln(n) in 60-digit decimal, asserting a margin."""
    lnn = dec_ln(n)
    t = 1 - DEC.sqrt(DEC.divide(DEC.ln(lnn), lnn))
    d = DEC.subtract(dec_ln(o), DEC.multiply(t, lnn))
    assert abs(d) > DEC_MARGIN, (o, n, d)
    return d > 0


def deficiency_bin(n, lamlam):
    """Bin of log(n/lamlam) / ((log log n)^2 * log log log n) in 0.05-wide
    bins clamped to [0, 20], in 60-digit decimal with an asserted margin from
    the nearest edge.  The denominator is positive exactly for n >= 16."""
    lnn = dec_ln(n)
    ll = DEC.ln(lnn)
    assert (ll > 1) == (n >= 16), n
    if n < 16:
        return None
    u = 20 * DEC.divide(lnn - dec_ln(lamlam), ll * ll * DEC.ln(ll))
    b = int(u.to_integral_value(rounding=decimal.ROUND_FLOOR))
    assert min(u - b, b + 1 - u) > DEC_MARGIN, (n, lamlam, u)
    return min(max(b, 0), 20)


def self_check():
    assert order_scan(2, 7) == 3
    assert order_scan(3, 10) == 4
    assert order_coprime(2, 12) == 2
    assert order_coprime(10, 45) == 1
    assert lambda_formula(8) == 2
    assert lambda_formula(15) == 4
    assert lambda_formula(209) == 90
    assert order_coprime(2, 90) == 12
    assert coprime_part(45, 10) == 9
    assert euler_phi(10) == 4
    assert sorted_divisors(12) == [1, 2, 3, 4, 6, 12]
    assert [exact_bin(q, 64) for q in (1, 7, 8, 63, 64, 10**9)] == [0, 9, 10, 19, 20, 20]
    # every threshold exponent used below must really be capped
    assert epsilon(2) == EPS_CAP and epsilon(10**6) == EPS_CAP
    assert epsilon(10**6, cap=0.1) == 0.1
    assert exceeds_power(8, 16, strict=False) and not exceeds_power(8, 16, strict=True)
    # 16^(1 - sqrt(log log 16 / log 16)) = 2.977...
    assert one_minus_delta_exceeds(3, 16) and not one_minus_delta_exceeds(2, 16)
    # lambda(lambda(167)) = 82: log(167/82) / (lnln^2 * lnlnln) = 0.51...
    assert deficiency_bin(167, 82) == 10 and deficiency_bin(209, 12) == 20
    assert deficiency_bin(15, 2) is None


class Tally:
    """total, exceed and the 21-bin histogram of one survey."""

    def __init__(self):
        self.total = self.exceed = 0
        self.histogram = [0] * 21

    def add(self, hit, q, n):
        self.total += 1
        self.exceed += bool(hit)
        self.histogram[exact_bin(q, n)] += 1

    def as_dict(self, histogram=True):
        out = {"total": self.total, "exceed": self.exceed}
        if histogram:
            out["histogram"] = self.histogram
        return out


def measure_ord_n(x_max, e=2):
    tally = Tally()
    for n in range(16, x_max + 1):
        o = order_coprime(e, n)
        tally.add(exceeds_power(o, n, strict=True), o, n)
    return tally


def measure_shifted_prime(primes, x_max, e=2, a=3, b=4):
    tally = Tally()
    for p in primes:
        if p > x_max:
            break
        o = order_coprime(e, p - 1)
        tally.add(exceeds_power(o, p, strict=False, a=a, b=b), o, p)
    return tally


def measure_lambda_n(x_max, e=2, lo=16, a=3, b=4):
    tally = Tally()
    for n in range(lo, x_max + 1):
        o = order_coprime(e, lambda_formula(n))
        tally.add(exceeds_power(o, n, strict=True, a=a, b=b), o, n)
    return tally


def measure_high_factor(primes, x_max):
    tally = Tally()
    for p in primes:
        if p > x_max:
            break
        q = max(factorize_trial(p - 1)) if p > 2 else 1
        # q > p^0.677 exactly: q^1000 > p^677
        tally.add(q**1000 > p**677, q, p)
    return tally


def measure_one_minus_delta(x_max, e=2):
    tally = Tally()
    for n in range(16, x_max + 1):
        o = order_coprime(e, lambda_formula(n))
        tally.add(one_minus_delta_exceeds(o, n), o, n)
    return tally


def measure_lambda_lambda(x_max):
    """total, exceed and the deficiency histogram; only n >= 16 is binned."""
    total = exceed = 0
    histogram = [0] * 21
    for n in range(2, x_max + 1):
        total += 1
        exceed += lambda_lambda_exceeds(n)
        b = deficiency_bin(n, lambda_formula(lambda_formula(n)))
        if b is not None:
            histogram[b] += 1
    return {"total": total, "exceed": exceed, "histogram": histogram}


def measure_rsa_pair(primes, x_max, e=2):
    """Every pair of primes p < l < 2p with l <= x_max; the order is taken
    modulo lcm(p-1, l-1), as in the survey's definition."""
    tally = Tally()
    small = [p for p in primes if p <= x_max]
    for l in small:
        for p in small:
            if p >= l:
                break
            if 2 * p > l:
                m = (p - 1) * (l - 1) // math.gcd(p - 1, l - 1)
                o = order_coprime(e, m)
                tally.add(exceeds_power(o, p * l, strict=False), o, p * l)
    return tally


def measure_class_counts(primes, x_max, e=2, a=1, b=1):
    """The L/M/H triple, and a tally whose exceed counts H and whose
    histogram bins log(ord)/log(p).  The M/H boundary p^(1/2 + 2*eps(p)) is
    p^(a/b): p^1 with the capped default epsilon, p^(7/10) at cap 1/10."""
    counts = {"L": 0, "M": 0, "H": 0}
    tally = Tally()
    for p in primes:
        if p > x_max:
            break
        o = order_coprime(e, p)
        high = exceeds_power(o, p, strict=True, a=a, b=b)
        tally.add(high, o, p)
        low_threshold = math.sqrt(p) / math.log(p)
        assert abs(o - low_threshold) > 1e-6 * low_threshold, (p, o)
        if o <= low_threshold:
            counts["L"] += 1
        elif not high:
            counts["M"] += 1
        else:
            counts["H"] += 1
    return counts, tally


def compute(log):
    self_check()
    golden = {"epsilon_cap": EPS_CAP, "e": 2, "surveys": {}}
    surveys = golden["surveys"]

    primes_1e6 = simple_sieve(10**6)
    log(f"sieve to 1e6 done ({len(primes_1e6)} primes)")

    for key, measure in (
            ("ord-n@100000", lambda: measure_ord_n(10**5)),
            ("shifted-prime@100000", lambda: measure_shifted_prime(primes_1e6, 10**5)),
            ("lambda-n@100000", lambda: measure_lambda_n(10**5)),
            ("high-factor@100000", lambda: measure_high_factor(primes_1e6, 10**5)),
            ("rsa-pair@3000", lambda: measure_rsa_pair(primes_1e6, 3000)),
            ("one-minus-delta@100000", lambda: measure_one_minus_delta(10**5)),
            # a fixed exponent drops the floor to 2
            ("lambda-n@10000,exponent=0.333",
             lambda: measure_lambda_n(10**4, lo=2, a=333, b=1000)),
            ("shifted-prime@10000,cap=0.1",  # t = 1/2 + 1/10 = 3/5
             lambda: measure_shifted_prime(primes_1e6, 10**4, a=3, b=5))):
        tally = measure()
        surveys[key] = tally.as_dict()
        log(f"{key}: {tally.exceed}/{tally.total}")

    # other bases: the primes dividing e are skipped, which e = 2 barely tests
    for e in (3, 6, 10):
        for key, measure in (
                (f"ord-n@10000,e={e}", lambda: measure_ord_n(10**4, e=e)),
                (f"lambda-n@10000,e={e}", lambda: measure_lambda_n(10**4, e=e)),
                (f"one-minus-delta@10000,e={e}", lambda: measure_one_minus_delta(10**4, e=e)),
                (f"shifted-prime@10000,e={e}",
                 lambda: measure_shifted_prime(primes_1e6, 10**4, e=e)),
                (f"rsa-pair@3000,e={e}", lambda: measure_rsa_pair(primes_1e6, 3000, e=e))):
            tally = measure()
            surveys[key] = tally.as_dict()
            log(f"{key}: {tally.exceed}/{tally.total}")
        counts, tally = measure_class_counts(primes_1e6, 10**4, e=e)
        surveys[f"class-counts@10000,e={e}"] = {"class_counts": counts, **tally.as_dict()}
        log(f"class-counts@10000,e={e}: {counts}")

    lamlam = measure_lambda_lambda(10**5)
    surveys["lambda-lambda@100000"] = lamlam
    log(f"lambda-lambda@100000: {lamlam['exceed']}/{lamlam['total']}")

    for x in (10**4, 10**5, 10**6):
        counts, tally = measure_class_counts(primes_1e6, x)
        surveys[f"class-counts@{x}"] = counts
        if x >= 10**5:  # the triples stay whole; the tally gets its own key
            surveys[f"class-counts@{x},histogram"] = tally.as_dict()
        log(f"class-counts@{x}: {counts}")
    counts, tally = measure_class_counts(primes_1e6, 10**4, a=7, b=10)
    surveys["class-counts@10000,cap=0.1"] = {"class_counts": counts, **tally.as_dict()}
    log(f"class-counts@10000,cap=0.1: {counts}")

    trend = {}
    for k in (10, 14, 18):
        x = 2**k
        tally = measure_lambda_n(2 * x, lo=x + 1, a=1, b=2)
        trend[f"2^{k}"] = tally.as_dict(histogram=False)
        log(f"lambda-n trend (2^{k}, 2^{k+1}]: {tally.exceed}/{tally.total}")
    golden["trend_lambda_n_half"] = trend
    return golden


def _diff(want, got, path=""):
    """Paths at which two JSON documents differ."""
    if isinstance(want, dict) and isinstance(got, dict):
        return [d for key in sorted(set(want) | set(got))
                for d in _diff(want.get(key), got.get(key), f"{path}/{key}")]
    return [] if want == got else [f"{path}: committed {want!r}, recomputed {got!r}"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="recompute and diff against the committed file; write nothing")
    args = parser.parse_args(argv)
    t0 = time.time()
    golden = compute(lambda msg: print(f"[{time.time()-t0:7.1f}s] {msg}", flush=True))
    text = json.dumps(golden, indent=2, sort_keys=True) + "\n"
    if args.check:
        diffs = _diff(json.loads(OUT_PATH.read_text()), json.loads(text))
        for d in diffs:
            print(d)
        print(f"[{time.time()-t0:7.1f}s] {len(diffs)} differences from {OUT_PATH}")
        return 1 if diffs else 0
    OUT_PATH.parent.mkdir(parents=True, exist_ok=True)
    OUT_PATH.write_text(text)
    print(f"[{time.time()-t0:7.1f}s] wrote {OUT_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
