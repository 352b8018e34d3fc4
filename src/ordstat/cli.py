"""Command-line front end.

    ordstat compute order --e 2 --n 12
    ordstat compute lambda --n 8
    ordstat compute classify --p 7 --e 2
    ordstat period power --e 2 --n 11 --u 3 --empirical
    ordstat period bbs --n 11 --u 3
    ordstat survey --kind lambda-n --e 2 --max 100000 --format csv

All output is deterministic for a given argument list: JSON documents carry
a "schema" field and survey CSV has a fixed column set (summary row first,
then the 21 histogram bins in ascending order).  Exit codes: 0 success,
2 usage or domain error, 3 arithmetic overflow, 4 I/O or corrupt state.
Surveys read their orders off a smallest-prime-factor table over [1, --max]
(capped at 2^27), which costs 2 bytes per integer and is built per process.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .arith import factorize
from .classify import EpsilonFn, classify_prime
from .generators import (LcgSpec, PowerGenSpec, lcg_period_analytic,
                         lcg_period_empirical, power_period_analytic,
                         power_period_empirical)
from .orders import carmichael_lambda, omega, order_profile, smooth_part, squarefree_core
from .survey import (DEFAULT_RSA_SAMPLE, DEFAULT_SEED, KINDS, CheckpointError,
                     SurveyConfig, SurveyResult, run_survey)

SURVEY_CSV_COLUMNS = ("kind", "e", "x_max", "total", "exceed", "fraction",
                      "bin_lo", "bin_hi", "bin_count")


def _emit_json(doc: dict, out=None) -> None:
    (out or sys.stdout).write(json.dumps(doc) + "\n")


def _cmd_compute(args) -> int:
    sub = args.quantity
    if sub == "order":
        prof = order_profile(args.e, args.n)
        doc = {"schema": 1, "n": prof.n, "e": prof.e, "n_coprime": prof.n_coprime,
               "lambda": prof.lambda_n, "ord_star": prof.ord_star}
        if prof.index is not None:
            doc["index"] = prof.index
    elif sub == "lambda":
        doc = {"schema": 1, "n": args.n, "lambda": carmichael_lambda(factorize(args.n))}
    elif sub == "core":
        doc = {"schema": 1, "n": args.n, "core": squarefree_core(args.n)}
    elif sub == "omega":
        doc = {"schema": 1, "n": args.n, "omega": omega(args.n)}
    elif sub == "smooth-part":
        allowed = frozenset(int(p) for p in args.primes.split(","))
        value = smooth_part(args.n, lambda p: p in allowed)
        doc = {"schema": 1, "n": args.n, "primes": sorted(allowed), "smooth_part": value}
    elif sub == "classify":
        eps = EpsilonFn(cap=args.epsilon_cap)
        doc = {"schema": 1, "p": args.p, "e": args.e,
               "class": classify_prime(args.p, args.e, eps)}
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown compute quantity {sub!r}")
    _emit_json(doc)
    return 0


def _cmd_period(args) -> int:
    gen = args.generator
    if gen == "lcg":
        spec = LcgSpec(e=args.e, b=args.b, n=args.n, u0=args.u)
        info = lcg_period_analytic(spec)
        doc = {"schema": 1, "generator": "lcg", "e": spec.e, "b": spec.b,
               "n": spec.n, "u0": spec.u0,
               "exact": info.exact, "divisor_bound": info.divisor_bound}
        if args.empirical:
            cyc = lcg_period_empirical(spec)
            doc["empirical_period"] = cyc.period
            doc["tail"] = cyc.tail
            doc["agree"] = (info.exact == cyc.period if info.exact is not None
                            else info.divisor_bound % cyc.period == 0)
    else:
        e = 2 if gen == "bbs" else args.e
        spec = PowerGenSpec(e=e, n=args.n, u0=args.u)
        doc = {"schema": 1, "generator": "power", "e": spec.e, "n": spec.n,
               "u0": spec.u0, "analytic": power_period_analytic(spec)}
        if args.empirical:
            cyc = power_period_empirical(spec)
            doc["empirical_period"] = cyc.period
            doc["tail"] = cyc.tail
            doc["agree"] = doc["analytic"] == cyc.period
    _emit_json(doc)
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
        prog="ordstat",
        description="Multiplicative order statistics and generator periods.")
    commands = parser.add_subparsers(dest="command", required=True)

    compute = commands.add_parser("compute", help="single order-function values")
    cq = compute.add_subparsers(dest="quantity", required=True)
    for name in ("order", "lambda", "core", "omega"):
        sp = cq.add_parser(name)
        sp.add_argument("--n", type=int, required=True)
        if name == "order":
            sp.add_argument("--e", type=int, required=True)
        sp.set_defaults(func=_cmd_compute)
    sp = cq.add_parser("smooth-part")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--primes", type=str, required=True,
                    help="comma-separated primes allowed in the smooth part")
    sp.set_defaults(func=_cmd_compute)
    sp = cq.add_parser("classify")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--e", type=int, required=True)
    sp.add_argument("--epsilon-cap", type=float, default=EpsilonFn.cap)
    sp.set_defaults(func=_cmd_compute)

    period = commands.add_parser("period", help="generator period, analytic and empirical")
    pg = period.add_subparsers(dest="generator", required=True)
    sp = pg.add_parser("lcg")
    sp.add_argument("--e", type=int, required=True)
    sp.add_argument("--b", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--u", type=int, required=True)
    sp.add_argument("--empirical", action="store_true")
    sp.set_defaults(func=_cmd_period)
    for name in ("power", "bbs"):
        sp = pg.add_parser(name)
        if name == "power":
            sp.add_argument("--e", type=int, required=True)
        sp.add_argument("--n", type=int, required=True)
        sp.add_argument("--u", type=int, required=True)
        sp.add_argument("--empirical", action="store_true")
        sp.set_defaults(func=_cmd_period)

    sv = commands.add_parser("survey", help="range surveys with CSV/JSON reports")
    sv.add_argument("--kind", required=True, choices=KINDS)
    sv.add_argument("--e", type=int, default=SurveyConfig.e)
    sv.add_argument("--max", type=int, required=True)
    sv.add_argument("--epsilon-cap", type=float, default=EpsilonFn.cap)
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
