"""Workload definitions: the operations of one pass, built from the seed, and
the check that decides whether each operation's answer is right.

An operation is one call of a public entry point: `ordstat.survey.run_survey`
or `ordstat.cli.main(argv)`.  Operation specs are plain JSON so that a fresh
interpreter (passrun.py) can execute them; the expectations stay here, in
the parent process, and are checked after the pass, outside every timed
region.  Survey answers are checked against the oracle goldens, read when
the benchmark runs, or against invariants that need no engine code; query
answers are checked by certificates from numtheory.py.
"""

from __future__ import annotations

import math
import random

import numtheory as nt

WORKLOADS = ("dense-int", "sparse-prime", "query-64bit", "parallel-resume")

# The golden lambda-n trend window (2^18, 2^19] with the fixed exponent 1/2.
TREND_KEY = "2^18"
TREND_LO, TREND_HI = 2**18 + 1, 2**19
TREND_CHUNK = 1024          # 256 chunks, so 256 checkpoint writes per full run
RSA_SAMPLE = 20_000

# Query mix per pass.  The counts are weighted so that neither the median
# nor the 95th percentile sits on the boundary between two query types:
# sorted by latency the types come as power < lambda < order < bbs, the
# median falls inside `order` and the 95th percentile inside `bbs`.
QUERY_MIX = (("power", 40), ("lambda", 40), ("order", 100), ("bbs", 60))


def _survey(label, kind, x_max, workers=1, checkpoint=None, resume=False, **config):
    return {"type": "survey", "label": label, "workers": workers,
            "checkpoint": checkpoint, "resume": resume,
            "config": {"kind": kind, "x_max": x_max, **config}}


def _trend_config():
    return {"x_min": TREND_LO, "exponent_override": 0.5, "chunk": TREND_CHUNK}


def survey_ops(workload: str, seed: int, work: str) -> list[dict]:
    """Operations of one pass of a survey workload."""
    if workload == "dense-int":
        return [
            _survey("ord-n@100000", "ord-n", 10**5),
            _survey("lambda-n@100000", "lambda-n", 10**5),
            _survey("lambda-lambda@100000", "lambda-lambda", 10**5),
            {"type": "cli", "label": "cli-survey-csv@2000",
             "argv": ["survey", "--kind", "lambda-n", "--max", "2000",
                      "--format", "csv", "--out", f"{work}/lambda_n_2000.csv"],
             "out": f"{work}/lambda_n_2000.csv"},
        ]
    if workload == "sparse-prime":
        return [
            _survey("class-counts@1000000", "class-counts", 10**6),
            _survey("shifted-prime@100000", "shifted-prime", 10**5),
            _survey("high-factor@100000", "high-factor", 10**5),
            _survey("rsa-pair@100000", "rsa-pair", 10**5,
                    seed=seed, sample_size=RSA_SAMPLE),
        ]
    raise ValueError(workload)


def resume_ops(work: str, workers: int, checkpoint: bool = True) -> list[dict]:
    """parallel-resume: the full trend-window survey, then a resume of the
    same config from a checkpoint holding the first half of its chunks."""
    full = f"{work}/full.ckpt.json"
    half = f"{work}/half.ckpt.json"
    ops = [_survey(f"trend_lambda_n_half@{TREND_KEY}", "lambda-n", TREND_HI,
                   workers=workers, checkpoint=full if checkpoint else None,
                   **_trend_config())]
    if checkpoint:
        ops += [
            {"type": "halve_checkpoint", "full": full, "half": half,
             "config": ops[0]["config"], "workers": 2,
             "partial_cache": f"{work}/half_partial.json"},
            _survey(f"resume:trend_lambda_n_half@{TREND_KEY}", "lambda-n",
                    TREND_HI, workers=workers, checkpoint=half, resume=True,
                    **_trend_config()),
        ]
    return ops


# ---------------------------------------------------------------------------
# single-value queries

def _coprime_to(rng: random.Random, m: int) -> int:
    while True:
        u = rng.randrange(2, m)
        if math.gcd(u, m) == 1:
            return u


def _mixed_modulus(rng: random.Random, small_bits: int) -> dict[int, int]:
    """2^a * p * q below 2^64, with p of small_bits bits and q filling the rest."""
    a = rng.choice((0, 0, 1, 3, 7))
    p = nt.random_prime(rng, small_bits)
    q = nt.random_prime(rng, 64 - a - small_bits)
    fac = {p: 1, q: 1}
    if a:
        fac[2] = a
    return fac


def make_query(rng: random.Random, kind: str) -> dict:
    """One query: the argv for cli.main plus what the certificate needs."""
    if kind == "lambda":
        fac = _mixed_modulus(rng, 20)
        return {"kind": kind, "fac": fac,
                "argv": ["compute", "lambda", "--n", str(nt.value(fac))]}
    if kind == "order":
        fac = _mixed_modulus(rng, 24)
        e = rng.choice((2, 3))
        return {"kind": kind, "fac": fac, "e": e,
                "argv": ["compute", "order", "--e", str(e), "--n", str(nt.value(fac))]}
    if kind == "bbs":
        p = nt.random_prime(rng, 30, mod4=3)
        q = p
        while q == p:
            q = nt.random_prime(rng, 30, mod4=3)
        u = _coprime_to(rng, p * q)
        return {"kind": kind, "fac": {p: 1, q: 1}, "e": 2, "u": u,
                "argv": ["period", "bbs", "--n", str(p * q), "--u", str(u)]}
    if kind == "power":
        # ~24-bit moduli; the orbit is walked step by step, so keep the
        # period (computed here, independently) between 2^8 and 2^11.
        while True:
            p, q = nt.random_prime(rng, 12), nt.random_prime(rng, 12)
            if p == q:
                continue
            fac, e = {p: 1, q: 1}, rng.choice((2, 3))
            u = _coprime_to(rng, p * q)
            period, _ = nt.power_period(e, u, fac)
            if 256 <= period <= 2048:
                return {"kind": kind, "fac": fac, "e": e, "u": u,
                        "argv": ["period", "power", "--e", str(e), "--n", str(p * q),
                                 "--u", str(u), "--empirical"]}
    raise ValueError(kind)


def query_ops(seed: int, pass_index: int) -> list[dict]:
    """The queries of one pass: each pass draws fresh inputs from
    (seed, pass index), in a shuffled order."""
    rng = random.Random(seed * 1_000_003 + pass_index)
    queries = [make_query(rng, kind) for kind, count in QUERY_MIX for _ in range(count)]
    rng.shuffle(queries)
    return [{"type": "cli", "label": f"query:{q['kind']}", "argv": q["argv"],
             "query": q} for q in queries]


def certify_query(q: dict, doc: dict) -> str | None:
    """None if the CLI answer is certified, else what is wrong."""
    fac, kind = q["fac"], q["kind"]
    m = nt.value(fac)
    if doc.get("schema") != 1 or doc.get("n") != m:
        return f"unexpected document {doc}"
    if kind == "lambda":
        want = nt.value(nt.carmichael(fac))
        return None if doc.get("lambda") == want else f"lambda {doc.get('lambda')} != {want}"
    if kind == "order":
        e = q["e"]
        mc_fac = nt.strip(fac, e)
        mc = nt.value(mc_fac)
        if doc.get("n_coprime") != mc:
            return f"n_coprime {doc.get('n_coprime')} != {mc}"
        if doc.get("lambda") != nt.value(nt.carmichael(fac)):
            return f"lambda {doc.get('lambda')} is wrong"
        k = doc.get("ord_star")
        if not isinstance(k, int) or not nt.certify_order(e, mc, k, nt.carmichael(mc_fac)):
            return f"ord_star {k} fails the order certificate mod {mc}"
        return None
    # period bbs / power: analytic = order of e modulo o', where o' is the
    # part of ord_m(u) coprime to e.
    _, o_fac = nt.power_period(q["e"], q["u"], fac)
    k = doc.get("analytic")
    if not isinstance(k, int) or not nt.certify_order(q["e"], nt.value(o_fac), k,
                                                       nt.carmichael(o_fac)):
        return f"analytic period {k} fails the order certificate"
    if kind == "power" and (doc.get("agree") is not True or doc.get("empirical_period") != k):
        return f"empirical period disagrees: {doc}"
    return None


# ---------------------------------------------------------------------------
# survey expectations

def _invariants(label: str, result: dict, seed: int) -> str | None:
    """Checks for kinds with no golden yet; they need no engine code."""
    if label == "lambda-lambda@100000":
        if result["total"] != 99_999 or sum(result["histogram"]) != 99_985:
            return (f"total {result['total']} (want 99999), histogram sum "
                    f"{sum(result['histogram'])} (want 99985: only n >= 16 is binned)")
        return None
    if label == "rsa-pair@100000":
        if (result["total"] != RSA_SAMPLE or result["sampled"] is not True
                or sum(result["histogram"]) != result["total"]
                or result["seed"] != seed):
            return f"sampled rsa-pair invariants fail: {result}"
        return None
    return f"no expectation for {label}"


def check_survey(label: str, result: dict, golden: dict, seed: int) -> str | None:
    """None if the survey result matches every expectation for its label."""
    if not 0 <= result["exceed"] <= result["total"]:
        return f"exceed {result['exceed']} outside [0, total {result['total']}]"
    key = label.split(":", 1)[-1]
    if result["sampled"]:  # a golden for the kind at this x is a full enumeration
        expected = None
    elif key.startswith("trend_lambda_n_half@"):
        expected = golden.get("trend_lambda_n_half", {}).get(key.split("@", 1)[1])
    else:
        expected = golden.get("surveys", {}).get(key)
    if expected is None:
        return _invariants(key, result, seed)
    counts = result.get("class_counts") or {}
    for field, want in expected.items():
        got = result[field] if field in result else counts.get(field)
        if got != want:
            return f"{field} = {got}, golden {want}"
    if not key.startswith("lambda-lambda") and sum(result["histogram"]) != result["total"]:
        return f"histogram sums to {sum(result['histogram'])}, total {result['total']}"
    return None
