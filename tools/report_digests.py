#!/usr/bin/env python3
"""Print sha256 digests of ordstat's reports, to show that a change to the
decision code leaves every report byte-identical.

    python tools/report_digests.py [--large]

It runs from the repository root and imports ordstat from src/.  It prints
one digest over a matrix of 45 surveys (each survey's to_dict() as sorted
JSON, its CSV and its config_digest), and one over the 1,212 outputs of
`ordstat compute classify` for every prime below 2000 at e in {2, 3} and
epsilon cap in {0.1, 0.25}.  The survey matrix is:

    every kind at e in {2, 3, 6, 10}, x_max 2*10^4 (rsa-pair 3000)   32
    the five kinds that take --exponent, at exponent 0.5               5
    every kind with x_min = 3 and chunk = 777                          8

With --large it also prints to_dict() of lambda-lambda and one-minus-delta
at 10^6, with each one's digest.  Run it on two checkouts and compare the
lines.  It prints and always exits 0: it checks nothing itself.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ordstat.arith import primes_in_range  # noqa: E402
from ordstat.cli import main as cli_main, survey_result_csv  # noqa: E402
from ordstat.survey import (HIGH_FACTOR, KINDS, LAMBDA_LAMBDA, LAMBDA_N,  # noqa: E402
                            ONE_MINUS_DELTA, ORD_N, RSA_PAIR, SHIFTED_PRIME,
                            SurveyConfig, config_digest, run_survey)

OVERRIDABLE = (ORD_N, LAMBDA_N, SHIFTED_PRIME, HIGH_FACTOR, RSA_PAIR)


def _x_max(kind: str) -> int:
    return 3000 if kind == RSA_PAIR else 2 * 10**4


def survey_matrix() -> list[SurveyConfig]:
    return [*(SurveyConfig(kind=kind, x_max=_x_max(kind), e=e)
              for kind in KINDS for e in (2, 3, 6, 10)),
            *(SurveyConfig(kind=kind, x_max=_x_max(kind), exponent_override=0.5)
              for kind in OVERRIDABLE),
            *(SurveyConfig(kind=kind, x_max=_x_max(kind), x_min=3, chunk=777)
              for kind in KINDS)]


def survey_digest(configs: list[SurveyConfig]) -> str:
    h = hashlib.sha256()
    for cfg in configs:
        result = run_survey(cfg)
        for part in (json.dumps(result.to_dict(), sort_keys=True),
                     survey_result_csv(result), config_digest(cfg)):
            h.update(part.encode() + b"\n")
    return h.hexdigest()


def classify_outputs() -> list[str]:
    outputs = []
    for p in primes_in_range(2, 2000):
        for e in (2, 3):
            for cap in ("0.1", "0.25"):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    cli_main(["compute", "classify", "--p", str(p), "--e", str(e),
                              "--epsilon-cap", cap])
                outputs.append(out.getvalue())
    return outputs


def main(argv: list[str]) -> int:
    configs = survey_matrix()
    start = time.perf_counter()
    print(f"surveys   {len(configs):5d}  {survey_digest(configs)}")
    outputs = classify_outputs()
    digest = hashlib.sha256("".join(outputs).encode()).hexdigest()
    print(f"classify  {len(outputs):5d}  {digest}")
    if "--large" in argv:
        for kind in (LAMBDA_LAMBDA, ONE_MINUS_DELTA):
            report = json.dumps(run_survey(SurveyConfig(kind=kind, x_max=10**6)).to_dict(),
                                sort_keys=True)
            print(f"{kind}@1000000  {hashlib.sha256(report.encode()).hexdigest()}")
            print(report)
    print(f"({time.perf_counter() - start:.1f} s)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
