#!/usr/bin/env python3
"""Self-test of the benchmark's correctness gate.

    python3 perfbench/selftest.py

Runs one dense-int pass twice: with the real goldens it must exit 0 with no
failed operation; with a temporary copy of the goldens in which one expected
count is off by one it must exit non-zero and report failed operations
(fail_frac > 0).  tests/golden/ itself is never written.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = ROOT / "tests" / "golden" / "oracle_measurements.json"
DOCTORED_KEY = "lambda-n@100000"


def run(golden: Path) -> tuple[int, dict | None]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "dense-int", "--seed", "1",
         "--seconds", "1", "--trace", "0", "--golden", str(golden)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result


def main() -> int:
    work = ROOT / ".perfbench_work" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        doctored = json.loads(GOLDEN.read_text())
        doctored["surveys"][DOCTORED_KEY]["exceed"] += 1
        bad = work / "oracle_measurements.json"
        bad.write_text(json.dumps(doctored))
        rc_good, good = run(GOLDEN)
        rc_bad, result = run(bad)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ok_good = rc_good == 0 and good is not None and good["failed"] == 0
    ok_bad = rc_bad != 0 and result is not None and result["failed"] > 0
    print(f"{'PASS' if ok_good else 'FAIL'}: real goldens -> exit {rc_good}, {good and good['failed']} failed")
    if result:
        print(f"{'PASS' if ok_bad else 'FAIL'}: {DOCTORED_KEY} exceed off by one -> exit {rc_bad}, "
              f"fail_frac {result['failed']}/{result['attempted']}")
    else:
        print(f"FAIL: {DOCTORED_KEY} exceed off by one -> exit {rc_bad}, no result printed")
    return 0 if ok_good and ok_bad else 1


if __name__ == "__main__":
    sys.exit(main())
