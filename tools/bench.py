#!/usr/bin/env python3
"""Time ordstat's single-value query path, and check every answer it gives.

    python tools/bench.py [--quick] [--out PATH]

It runs from any directory and imports ordstat from src/.  Inputs come from
the benchmark's own arithmetic (perfbench/numtheory.py, which shares no code
with ordstat): every modulus is a product of primes drawn here, so its
factors are known without factoring.  Three families of moduli below 2^64,
those of the query-64bit workload, drawn from the fixed seed SEED, are timed
through `arith.factorize`:

    blum60      p*q with p and q 30-bit primes = 3 mod 4 (`period bbs`)
    mixed-p20   2^a*p*q < 2^64 with p of 20 bits (`compute lambda`)
    mixed-p24   2^a*p*q < 2^64 with p of 24 bits (`compute order`)

and two commands through `cli.main`: `compute order` on the mixed-p24
moduli and `period bbs` on the blum60 moduli.  Each row gives µs/call: the
mean over the family of each input's fastest call in five rounds.  Every answer is
checked before the timed rounds: a factorization against the factors drawn,
an ord_star or bbs period by the order certificate (g^k = 1 and
g^(k/q) != 1 for each prime q of k), and the bbs tail against the power of
2 in the seed's order.  Any wrong answer makes it exit 1.

Each factorize row also gives the share of its moduli whose odd part the
factorizer's Pollard p-1 stage, gcd(2^E - 1, n) with E = lcm(1, ...,
arith._PM1_BOUND), splits: a property of the inputs that the p-1 stage's
gain depends on.

It prints the report as JSON, with the commit, nproc, CPU model and Python
version.  Without --quick it also writes it to BENCH_1.json at the
repository root, or to --out; --quick times a few inputs per family once
and writes only to --out.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import random
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import numtheory as nt  # noqa: E402
from ordstat import arith  # noqa: E402
from ordstat.arith import factorize  # noqa: E402
from ordstat.cli import main as cli_main  # noqa: E402

SEED = 20260417
SIZES = {"full": (120, 40, 5), "quick": (4, 2, 1)}  # factorize, cli inputs; rounds


def blum60(rng: random.Random) -> dict[int, int]:
    p = nt.random_prime(rng, 30, mod4=3)
    while (q := nt.random_prime(rng, 30, mod4=3)) == p:
        pass
    return {p: 1, q: 1}


def mixed(rng: random.Random, small_bits: int) -> dict[int, int]:
    a = rng.choice((0, 0, 1, 3, 7))
    fac = {nt.random_prime(rng, small_bits): 1, nt.random_prime(rng, 64 - a - small_bits): 1}
    return {2: a, **fac} if a else fac


FAMILIES = {"blum60": blum60,
            "mixed-p20": lambda rng: mixed(rng, 20),
            "mixed-p24": lambda rng: mixed(rng, 24)}


def check_factorization(fac: dict[int, int], got) -> str | None:
    """None if the Factorization got is that of the factors fac drawn."""
    want = tuple(sorted(fac.items()))
    if got.value != nt.value(fac) or got.factors != want:
        return f"factorize({nt.value(fac)}) gave {got.factors}, not {want}"
    return None


def check_order(e: int, fac: dict[int, int], doc: dict) -> str | None:
    """None if a `compute order` document is right for e and n = fac."""
    mc_fac = nt.strip(fac, e)
    mc, k = nt.value(mc_fac), doc.get("ord_star")
    if (doc.get("n"), doc.get("n_coprime")) != (nt.value(fac), mc):
        return f"order document {doc} has the wrong n or n_coprime"
    if doc.get("lambda") != nt.value(nt.carmichael(fac)):
        return f"lambda {doc.get('lambda')} of {nt.value(fac)} is wrong"
    if not isinstance(k, int) or not nt.certify_order(e, mc, k, nt.carmichael(mc_fac)):
        return f"ord_star {k} fails the order certificate mod {mc}"
    return None


def check_bbs(u: int, fac: dict[int, int], doc: dict) -> str | None:
    """None if a `period bbs` document is right for seed u and n = fac:
    its period is ord*(2, o) and its tail the power of 2 in o = ord_n(u)."""
    o_fac = nt.order(u, fac)
    odd = nt.strip(o_fac, 2)
    k = doc.get("analytic")
    if not isinstance(k, int) or not nt.certify_order(2, nt.value(odd), k, nt.carmichael(odd)):
        return f"bbs period {k} of u = {u} mod {nt.value(fac)} fails the order certificate"
    if doc.get("analytic_tail") != o_fac.get(2, 0):
        return f"bbs tail {doc.get('analytic_tail')} != {o_fac.get(2, 0)}"
    return None


def coprime_seed(rng: random.Random, n: int) -> int:
    while math.gcd(u := rng.randrange(2, n), n) != 1:
        pass
    return u


def pm1_splits(fac: dict[int, int]) -> bool:
    odd = nt.value(nt.strip(fac, 2))
    return 1 < math.gcd(pow(2, arith._pm1_exponent(), odd) - 1, odd) < odd


def run_cli(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    return json.loads(out.getvalue()) if code == 0 else {"exit": code}


def us_per_call(fn, inputs: list, rounds: int) -> float:
    """Mean over inputs of the least µs that one call of fn took on the
    input in any round: a pure call is as fast as its least disturbed run."""
    best = [math.inf] * len(inputs)
    for _ in range(rounds):
        for i, args in enumerate(inputs):
            start = time.perf_counter()
            fn(*args)
            best[i] = min(best[i], time.perf_counter() - start)
    return round(sum(best) / len(inputs) * 1e6, 1)


def machine() -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        cpu = next((line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo")
                    if line.startswith("model name")), cpu)
    return {"commit": commit, "nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version()}


def bench(quick: bool) -> tuple[dict, list[str]]:
    """The report and the wrong answers met."""
    n_fac, n_cli, rounds = SIZES["quick" if quick else "full"]
    rng = random.Random(SEED)
    drawn = {name: [draw(rng) for _ in range(n_fac)] for name, draw in FAMILIES.items()}
    wrong: list[str] = []
    rows = {}
    for name, facs in drawn.items():
        inputs = [(nt.value(fac),) for fac in facs]
        wrong += filter(None, (check_factorization(fac, factorize(*args))
                               for fac, args in zip(facs, inputs)))
        rows[name] = {"inputs": len(inputs),
                      "us_per_call": us_per_call(factorize, inputs, rounds),
                      "pm1_split_share": round(sum(map(pm1_splits, facs)) / len(facs), 3)}
    orders = [(rng.choice((2, 3)), fac) for fac in drawn["mixed-p24"][:n_cli]]
    seeds = [(coprime_seed(rng, nt.value(fac)), fac) for fac in drawn["blum60"][:n_cli]]
    # command: [(argv, its checker, the checker's e or u, the factors of n)]
    commands = {
        "compute order": [(["compute", "order", "--e", str(e), "--n", str(nt.value(fac))],
                           check_order, e, fac) for e, fac in orders],
        "period bbs": [(["period", "bbs", "--n", str(nt.value(fac)), "--u", str(u)],
                        check_bbs, u, fac) for u, fac in seeds],
    }
    for name, cases in commands.items():
        wrong += filter(None, (check(g, fac, run_cli(argv)) for argv, check, g, fac in cases))
        with contextlib.redirect_stdout(io.StringIO()):
            rows[name] = {"inputs": len(cases), "us_per_call": us_per_call(
                cli_main, [(argv,) for argv, *_ in cases], rounds)}
    report = {**machine(), "seed": SEED, "pm1_bound": arith._PM1_BOUND, "quick": quick,
              "rounds": rounds,
              "factorize": {k: rows[k] for k in FAMILIES},
              "cli.main": {k: rows[k] for k in commands}, "wrong": len(wrong)}
    return report, wrong


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true", help="a few inputs per family, one round")
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)
    report, wrong = bench(args.quick)
    text = json.dumps(report, indent=2) + "\n"
    print(text, end="")
    out = args.out or (None if args.quick else ROOT / "BENCH_1.json")
    if out:
        out.write_text(text)
    for problem in wrong:
        print(f"WRONG: {problem}", file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
