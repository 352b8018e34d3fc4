"""Command-line front end.

    ordstat compute order --e 2 --n 12
    ordstat compute lambda --n 8
    ordstat compute classify --p 7 --e 2
    ordstat period power --e 2 --n 11 --u 3 --empirical
    ordstat period bbs --n 11 --u 3
    ordstat period lcg --e 3 --b 1 --n 10 --u 0
    ordstat survey --kind lambda-n --e 2 --max 100000 --format csv

Each compute and period subcommand is one row of _COMMANDS: its flags (from
_FLAGS) and a function from the parsed arguments to the JSON document printed
after "schema": 1.  The period rows share _period_doc: every generator's
document gives the exact "analytic" period and "analytic_tail" in closed
form, and on --empirical the walked orbit's "empirical_period" and "tail",
with "agree" true when the two (tail, period) pairs are equal.  bbs is
power with e = 2.

All output is deterministic for a given argument list: JSON documents carry
a "schema" field and survey CSV has a fixed column set (summary row first,
then the 21 histogram bins in ascending order).  Exit codes: 0 success,
2 usage or domain error, 3 arithmetic overflow, 4 I/O or corrupt state.
Surveys read their orders off a smallest-prime-factor table over [1, --max]
(capped at 2^27) and keep them in arrays beside it, each 2 bytes per
integer; a process builds the table at the first order it computes, so one
whose orders are all kept builds none.  Flags are matched whole, never by
prefix.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .arith import factorize, is_prime
from .classify import EpsilonFn, classify_prime
from .generators import (LcgSpec, PowerGenSpec, brent_cycle, lcg_period_analytic,
                         power_period_analytic)
from .orders import carmichael_lambda, omega, order_profile, smooth_part, squarefree_core
from .survey import (DEFAULT_RSA_SAMPLE, DEFAULT_SEED, KINDS, CheckpointError,
                     SurveyConfig, SurveyResult, run_survey)

SURVEY_CSV_COLUMNS = ("kind", "e", "x_max", "total", "exceed", "fraction",
                      "bin_lo", "bin_hi", "bin_count")


def _order_doc(args) -> dict:
    prof = order_profile(args.e, args.n)
    doc = {"n": prof.n, "e": prof.e, "n_coprime": prof.n_coprime,
           "lambda": prof.lambda_n, "ord_star": prof.ord_star}
    if prof.index is not None:
        doc["index"] = prof.index
    return doc


def _smooth_part_doc(args) -> dict:
    allowed = frozenset(int(p) for p in args.primes.split(","))
    for p in sorted(allowed):
        if not is_prime(p):
            raise ValueError(f"--primes takes primes only, got {p}")
    return {"n": args.n, "primes": sorted(allowed),
            "smooth_part": smooth_part(args.n, lambda p: p in allowed)}


def _period_doc(args, generator: str, spec, analytic) -> dict:
    """The generator's document: its spec, the analytic tail and period, and
    on --empirical those of its walked orbit and whether the two agree."""
    cycle = analytic(spec)
    doc = {"generator": generator, **vars(spec),
           "analytic": cycle.period, "analytic_tail": cycle.tail}
    if args.empirical:
        walked = brent_cycle(spec.step, spec.u0)
        doc.update(empirical_period=walked.period, tail=walked.tail, agree=walked == cycle)
    return doc


_FLAGS = {
    **{flag: dict(type=int, required=True) for flag in ("n", "e", "p", "b", "u")},
    "primes": dict(type=str, required=True,
                   help="comma-separated primes allowed in the smooth part"),
    "epsilon-cap": dict(type=float, default=EpsilonFn.cap),
    "empirical": dict(action="store_true"),
}

# command: (dest of its subcommand, help, {subcommand: (flags, document)})
_COMMANDS = {
    "compute": ("quantity", "single order-function values", {
        "order": ("n e", _order_doc),
        "lambda": ("n", lambda a: {"n": a.n, "lambda": carmichael_lambda(factorize(a.n))}),
        "core": ("n", lambda a: {"n": a.n, "core": squarefree_core(a.n)}),
        "omega": ("n", lambda a: {"n": a.n, "omega": omega(a.n)}),
        "smooth-part": ("n primes", _smooth_part_doc),
        "classify": ("p e epsilon-cap", lambda a: {
            "p": a.p, "e": a.e,
            "class": classify_prime(a.p, a.e, EpsilonFn(cap=a.epsilon_cap))}),
    }),
    "period": ("generator", "generator period, analytic and empirical", {
        "lcg": ("e b n u empirical", lambda a: _period_doc(
            a, "lcg", LcgSpec(a.e, a.b, a.n, a.u), lcg_period_analytic)),
        "power": ("e n u empirical", lambda a: _period_doc(
            a, "power", PowerGenSpec(a.e, a.n, a.u), power_period_analytic)),
        "bbs": ("n u empirical", lambda a: _period_doc(
            a, "power", PowerGenSpec(2, a.n, a.u), power_period_analytic)),
    }),
}


def _cmd_doc(args) -> int:
    sys.stdout.write(json.dumps({"schema": 1, **args.doc(args)}) + "\n")
    return 0


def survey_result_csv(result: SurveyResult) -> str:
    """Fixed-schema CSV: one summary row, then the histogram bins ascending."""
    cfg = result.config
    lines = [",".join(SURVEY_CSV_COLUMNS)]
    fraction = repr(result.exceed / result.total) if result.total else "0"
    lines.append(f"{cfg.kind},{cfg.e},{cfg.x_max},{result.total},{result.exceed},"
                 f"{fraction},,,")
    for i, count in enumerate(result.histogram):
        lo = f"{i * 5 / 100:.2f}"
        hi = f"{(i + 1) * 5 / 100:.2f}"
        lines.append(f"{cfg.kind},{cfg.e},{cfg.x_max},,,,{lo},{hi},{count}")
    return "\n".join(lines) + "\n"


def survey_result_json(result: SurveyResult) -> str:
    return json.dumps(result.to_dict(), indent=2) + "\n"


def _cmd_survey(args) -> int:
    cfg = SurveyConfig(
        kind=args.kind,
        x_max=args.max,
        e=args.e,
        epsilon=EpsilonFn(cap=args.epsilon_cap),
        exponent_override=args.exponent,
        chunk=args.chunk,
        seed=args.seed,
        sample_size=args.sample_size,
    )
    result = run_survey(cfg, workers=args.workers, checkpoint=args.checkpoint)
    text = (survey_result_csv(result) if args.format == "csv"
            else survey_result_json(result))
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


@functools.cache  # built once per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordstat", allow_abbrev=False,
        description="Multiplicative order statistics and generator periods.")
    commands = parser.add_subparsers(dest="command", required=True)
    for command, (dest, help_, rows) in _COMMANDS.items():
        subcommands = commands.add_parser(
            command, help=help_, allow_abbrev=False).add_subparsers(dest=dest, required=True)
        for name, (flags, doc) in rows.items():
            sp = subcommands.add_parser(name, allow_abbrev=False)
            for flag in flags.split():
                sp.add_argument(f"--{flag}", **_FLAGS[flag])
            sp.set_defaults(func=_cmd_doc, doc=doc)
    sv = commands.add_parser("survey", help="range surveys with CSV/JSON reports",
                             allow_abbrev=False)
    sv.add_argument("--kind", required=True, choices=KINDS)
    sv.add_argument("--e", type=int, default=SurveyConfig.e)
    sv.add_argument("--max", type=int, required=True)
    sv.add_argument("--epsilon-cap", **_FLAGS["epsilon-cap"])
    sv.add_argument("--exponent", type=float, default=None,
                    help="fixed threshold exponent replacing 1/2 + eps(n)")
    sv.add_argument("--workers", type=int, default=1)
    sv.add_argument("--chunk", type=int, default=SurveyConfig.chunk)
    sv.add_argument("--checkpoint", type=str, default=None)
    sv.add_argument("--out", type=str, default=None)
    sv.add_argument("--format", choices=["csv", "json"], default="json")
    sv.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="seed for rsa-pair sampling")
    sv.add_argument("--sample-size", type=int, default=DEFAULT_RSA_SAMPLE)
    sv.set_defaults(func=_cmd_survey)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except OverflowError as exc:
        print(f"ordstat: overflow: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"ordstat: error: {exc}", file=sys.stderr)
        return 2
    except (CheckpointError, OSError) as exc:
        print(f"ordstat: {exc}", file=sys.stderr)
        return 4


def entry() -> None:  # console script
    sys.exit(main())


if __name__ == "__main__":
    entry()
