#!/usr/bin/env python3
"""Time ordstat's single-value query path and a survey's chunking, and check
every answer they give.

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

The cold rows time fresh interpreters in ms, in the same way over nine
rounds: a bare `python -c pass`; the set-up that perfbench's query-64bit
workload times (`import ordstat, ordstat.cli`, then `factorize(2)`), timed
inside the process; and whole `python -m ordstat.cli` processes of the two
commands on their first three inputs, timed from outside, whose answers
are checked as above.

Each factorize row also gives the share of its moduli whose odd part the
factorizer's Pollard p-1 stage, gcd(2^E - 1, n) with E = lcm(1, ...,
arith._PM1_BOUND), splits: a property of the inputs that the p-1 stage's
gain depends on.

The survey rows time lambda-n@100000 on one worker at --chunk 10000 and at
--chunk 7, in CPU seconds: the least over the rounds of fresh processes,
each timing its run_survey call from inside.  The chunk sets a
checkpoint's granularity, so the two should cost about the same.  Each
report's total, exceed and histogram must equal the golden lambda-n@100000
of tests/golden/oracle_measurements.json; --quick surveys the golden
lambda-n@10000,e=3 instead.

It prints the report as JSON, with the commit, nproc, CPU model and Python
version.  Without --quick it also writes it to the first BENCH_<n>.json
that the repository root does not hold, or to --out; --quick times a few
inputs per family once and writes only to --out.  The commit is HEAD's, or
--commit's for a tree without .git (one that `git archive` made); with
neither, it writes no file and exits 2.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
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
COLD = {"full": (3, 9), "quick": (1, 1)}  # each command's inputs; rounds
SURVEY = {"full": ("lambda-n@100000", {"kind": "lambda-n", "x_max": 100_000}),
          "quick": ("lambda-n@10000,e=3", {"kind": "lambda-n", "x_max": 10_000, "e": 3})}
GRAINS = (10_000, 7)  # the --chunk of each survey row
GOLDEN = ROOT / "tests" / "golden" / "oracle_measurements.json"
SURVEY_RUN = ("import json, sys, time; from ordstat.survey import SurveyConfig, run_survey; "
              "cfg = SurveyConfig(**json.loads(sys.argv[1])); t0 = time.process_time(); "
              "report = run_survey(cfg).to_dict(); "
              "print(json.dumps([time.process_time() - t0, report]))")
SETUP = ("import time; t0 = time.perf_counter(); import ordstat, ordstat.cli; "
         "ordstat.factorize(2); print(time.perf_counter() - t0)")


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


def fresh(*args: str) -> tuple[float, str]:
    """Wall seconds and stdout of a fresh `python *args` that imports
    ordstat from src/."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))}
    start = time.perf_counter()
    out = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env).stdout
    return time.perf_counter() - start, out


def least_mean(timed, inputs: list, rounds: int) -> float:
    """Mean over inputs of the least seconds that timed(*input) returned in
    any round: a pure call is as fast as its least disturbed run."""
    best = [math.inf] * len(inputs)
    for _ in range(rounds):
        for i, args in enumerate(inputs):
            best[i] = min(best[i], timed(*args))
    return sum(best) / len(inputs)


def us_per_call(fn, inputs: list, rounds: int) -> float:
    """least_mean of the µs that one call of fn takes."""
    def timed(*args):
        start = time.perf_counter()
        fn(*args)
        return time.perf_counter() - start
    return round(least_mean(timed, inputs, rounds) * 1e6, 1)


def cold_rows(commands: dict, inputs: int, rounds: int) -> tuple[dict, list[str]]:
    """The cold rows, each the least_mean of its processes' ms, and the
    wrong answers that the command processes gave."""
    wrong: list[str] = []

    def command(argv, check, g, fac) -> float:
        seconds, out = fresh("-m", "ordstat.cli", *argv)
        wrong.extend(filter(None, [check(g, fac, json.loads(out) if out else {})]))
        return seconds

    timed = {"interpreter": (lambda: fresh("-c", "pass")[0], [()]),
             "set-up": (lambda: float(fresh("-c", SETUP)[1]), [()]),
             **{name: (command, cases[:inputs]) for name, cases in commands.items()}}
    rows = {name: {"inputs": len(args), "ms": round(least_mean(fn, args, rounds) * 1e3, 2)}
            for name, (fn, args) in timed.items()}
    return rows, wrong


def survey_rows(size: str, rounds: int) -> tuple[dict, list[str]]:
    """The survey rows, each the least CPU seconds of its chunk's surveys
    in rounds fresh processes, and the reports that missed the golden."""
    key, config = SURVEY[size]
    golden = {field: json.loads(GOLDEN.read_text())["surveys"][key][field]
              for field in ("total", "exceed", "histogram")}
    wrong: list[str] = []

    def timed(chunk: int) -> float:
        out = fresh("-c", SURVEY_RUN, json.dumps({**config, "chunk": chunk}))[1]
        seconds, report = json.loads(out) if out else (math.inf, {})
        got = {field: report.get(field) for field in golden}
        if got != golden:
            wrong.append(f"survey {key} at chunk {chunk} gave {got}, not the golden {golden}")
        return seconds

    rows = {f"chunk {chunk}": {"cpu_s": round(least_mean(timed, [(chunk,)], rounds), 4)}
            for chunk in GRAINS}
    return {"golden": key, "workers": 1, **rows}, wrong


def git_commit() -> str | None:
    """HEAD of the repository the script sits in; None without one."""
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def machine(commit: str | None) -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        cpu = next((line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo")
                    if line.startswith("model name")), cpu)
    return {"commit": commit, "nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(),
            "dont_write_bytecode": bool(sys.flags.dont_write_bytecode)}


def bench(quick: bool, commit: str | None) -> tuple[dict, list[str]]:
    """The report and the wrong answers met."""
    size = "quick" if quick else "full"
    n_fac, n_cli, rounds = SIZES[size]
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
    cold, cold_wrong = cold_rows(commands, *COLD[size])
    survey, survey_wrong = survey_rows(size, rounds)
    wrong += cold_wrong + survey_wrong
    report = {**machine(commit), "seed": SEED, "pm1_bound": arith._PM1_BOUND, "quick": quick,
              "rounds": rounds,
              "factorize": {k: rows[k] for k in FAMILIES},
              "cli.main": {k: rows[k] for k in commands}, "cold": cold, "survey": survey,
              "wrong": len(wrong)}
    return report, wrong


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true", help="a few inputs per family, one round")
    ap.add_argument("--out", type=Path, default=None)
    ap.add_argument("--commit", default=None,
                    help="the commit of a tree without .git, such as a `git archive` copy")
    args = ap.parse_args(argv)
    out = args.out or (None if args.quick else next(
        path for n in itertools.count(1) if not (path := ROOT / f"BENCH_{n}.json").exists()))
    commit = args.commit or git_commit()
    if out and commit is None:
        print(f"bench.py: no commit known, so no {out.name} written; give --commit",
              file=sys.stderr)
        return 2
    report, wrong = bench(args.quick, commit)
    text = json.dumps(report, indent=2) + "\n"
    print(text, end="")
    if out:
        out.write_text(text)
    for problem in wrong:
        print(f"WRONG: {problem}", file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
