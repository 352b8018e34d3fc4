#!/usr/bin/env python3
"""Layered benchmark of ordstat: end-to-end metrics, or per-layer metrics
from a traced run.

    python3 perfbench/run.py --workload dense-int --seed 1 --seconds 25 --trace 0

Run from the repository root.  A run is a closed loop of passes: each pass
is a fresh interpreter (passrun.py) that sets up ordstat and then runs the
workload's operations one after another, timing each call of a public entry
point (`ordstat.survey.run_survey`, `ordstat.cli.main`).  A new pass starts
only when the previous one has ended, and only while it is expected to end
within --seconds.  After each pass this process checks every answer, with
no code from ordstat: survey counts against tests/golden/ (read now, so new
goldens are checked with no change here), query answers by certificate.  A
wrong answer or an exception is a failed operation; any failure makes the
run exit 1 after printing its result.

--trace 1 alternates an untraced and a traced pass on the same inputs and
reports the per-layer metrics (see tracer.py) and the tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics, with exactly the metrics BENCHMARK.json lists for the mode.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads as wl  # noqa: E402

GOLDEN = ROOT / "tests" / "golden" / "oracle_measurements.json"
GOLDEN_CSV = ROOT / "tests" / "golden" / "survey_lambda_n_2000.csv"
WORK_ROOT = ROOT / ".perfbench_work"

RUN_LIMIT_S = 170     # a run must end within 180 s
# Time of one reference slice (numtheory.reference_slice) run in 1 or in 2
# processes at once, on the machine the benchmark was calibrated on: 2-core
# x86-64 virtual machine shared with other tenants, CPython 3.11.7.
REFERENCE_S = {1: 0.027, 2: 0.030}
SETUP_PROBES = 5      # set-up-only interpreters per run, besides one per pass
MIN_PASSES = 3


class Pass:
    """One pass: its operations, and what checking them found."""

    def __init__(self, ops: list[dict], doc: dict | None):
        self.ops = [op for op in ops if op["type"] != "halve_checkpoint"]
        self.doc = doc
        self.outputs = doc["ops"] if doc else []
        self.failures: list[str] = []
        self.items = 0

    def check(self, golden: dict, seed: int) -> None:
        if self.doc is None:
            self.failures = [f"{op['label']}: the pass did not finish" for op in self.ops]
            return
        for op, out in zip(self.ops, self.outputs):
            problem = out.get("error") or self._check_op(op, out, golden, seed)
            if problem:
                self.failures.append(f"{op['label']}: {problem}")

    def _check_op(self, op: dict, out: dict, golden: dict, seed: int) -> str | None:
        if op["type"] == "survey":
            self.items += out["result"]["total"]
            return wl.check_survey(op["label"], out["result"], golden, seed)
        if out["rc"] != 0:
            return f"exit code {out['rc']}"
        if op.get("out"):
            self.items += int(out["file"].splitlines()[1].split(",")[3])
            same = out["file"] == GOLDEN_CSV.read_bytes().decode("utf-8")
            return None if same else "CSV differs from golden"
        self.items += 1
        try:
            doc = json.loads(out["stdout"])
        except ValueError:
            return f"not JSON: {out['stdout'][:200]!r}"
        return wl.certify_query(op["query"], doc)

    @property
    def ok(self) -> bool:
        return self.complete and not self.failures

    @property
    def complete(self) -> bool:
        """Every operation ran to an answer (right or wrong) and was timed."""
        return self.doc is not None and all("seconds" in o for o in self.outputs)

    @property
    def procs(self) -> int:
        """Processes the operations keep busy; the reference slices ran in as many."""
        return self.doc["reference"][-1][2]

    @property
    def raw_latencies(self) -> list[float]:
        return [o["seconds"] for o in self.outputs]

    @property
    def latencies(self) -> list[float]:
        """Operation times in reference-normalized seconds: each is scaled by
        REFERENCE_S over the mean of the reference times taken just before
        and just after it, so the drift of the shared machine's speed
        cancels."""
        refs = [(pos, r) for pos, r, n in self.doc["reference"] if n == self.procs]
        out = []
        for k, seconds in enumerate(self.raw_latencies):
            before = [r for pos, r in refs if pos <= k][-1]
            after = next(r for pos, r in refs if pos > k)
            out.append(seconds * 2 * REFERENCE_S[self.procs] / (before + after))
        return out

    @property
    def setup(self) -> float:
        """Set-up time, scaled by the reference time taken right after it."""
        return self.doc["setup_s"] * REFERENCE_S[1] / self.doc["reference"][0][1]

    @property
    def wall(self) -> float:
        return sum(self.latencies)

    @property
    def raw_wall(self) -> float:
        return sum(self.raw_latencies)

    @property
    def second_half(self) -> float:
        """Time to finish the pass from its halfway point: its later half of
        operations (on parallel-resume, the resume from the half checkpoint)."""
        lat = self.latencies
        return sum(lat[len(lat) // 2:])


class Runner:
    def __init__(self, args):
        self.args = args
        self.start = time.perf_counter()
        self.work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
        self.golden = json.loads(Path(args.golden).read_text())
        self.passes: list[Pass] = []
        self.count = 0

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.start)

    def run_pass(self, ops: list[dict], trace: bool = False) -> dict | None:
        """Run ops in a fresh interpreter; its result document, or None."""
        self.count += 1
        spec_path = self.work / f"pass{self.count}.spec.json"
        out_path = self.work / f"pass{self.count}.result.json"
        spec = {"src": str(ROOT / "src"), "trace": trace,
                "ops": [{k: v for k, v in op.items() if k != "query"} for op in ops]}
        if trace:
            spans = WORK_ROOT / "spans"
            spans.mkdir(exist_ok=True)
            spec["spans_out"] = str(spans / f"{self.args.workload}.spans")
        spec_path.write_text(json.dumps(spec))
        proc = subprocess.Popen([sys.executable, str(HERE / "passrun.py"), str(spec_path),
                                 str(out_path)], stdout=subprocess.DEVNULL,
                                start_new_session=True)
        try:
            proc.wait(timeout=max(self.remaining(), 1.0))
        except subprocess.TimeoutExpired:
            print(f"pass {self.count} overran the run limit; stopped", file=sys.stderr)
        finally:
            try:  # the pass and any worker it left behind
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        if proc.returncode != 0 or not out_path.exists():
            return None
        return json.loads(out_path.read_text())

    def checked_pass(self, ops: list[dict], trace: bool = False) -> Pass:
        p = Pass(ops, self.run_pass(ops, trace))
        p.check(self.golden, self.args.seed)
        self.passes.append(p)
        for failure in p.failures:
            print(f"FAILED {failure}", file=sys.stderr)
        return p

    def ops(self, index: int, workers: int = 2) -> list[dict]:
        w = self.args.workload
        if w == "query-64bit":
            return wl.query_ops(self.args.seed, index)
        if w == "parallel-resume":
            return wl.resume_ops(str(self.work), workers)
        return wl.survey_ops(w, self.args.seed, str(self.work))

    def time_left(self, pass_seconds: float) -> bool:
        return time.perf_counter() - self.start + pass_seconds <= self.args.seconds

    # -- untraced --------------------------------------------------------

    def measure(self) -> dict:
        for _ in range(SETUP_PROBES):
            self.checked_pass([])
        durations = []
        while True:
            t0 = time.perf_counter()
            p = self.checked_pass(self.ops(len(durations)))
            durations.append(time.perf_counter() - t0)
            if not p.ok or (len(durations) >= MIN_PASSES
                            and not self.time_left(statistics.median(durations))):
                break
        good = [p for p in self.passes if p.complete and p.ops]
        if not good:
            return {}
        lat = sorted(x for p in good for x in p.latencies)
        setup = [p.setup for p in self.passes if p.doc]
        refs = [r for p in self.passes if p.doc for _, r, _ in p.doc["reference"]]
        self.notes = (f"{len(good)} passes, {len(lat)} operation latencies, {len(setup)} "
                      f"set-up samples; reference times (REFERENCE_S = {REFERENCE_S} s): "
                      f"median {statistics.median(refs) * 1e3:.2f} ms over {len(refs)}; raw "
                      f"median pass wall time {statistics.median(p.raw_wall for p in good):.4f} s")
        return {
            "wall_s": (statistics.median(p.wall for p in good), "s"),
            "items_per_s": (statistics.median(p.items / p.wall for p in good), "1/s"),
            "queries_per_s": (statistics.median(len(p.latencies) / p.wall for p in good),
                              "1/s"),
            "query_p50_ms": (statistics.median(lat) * 1e3, "ms"),
            "query_p95_ms": (_p95(lat) * 1e3, "ms"),
            "resume_s": (statistics.median(p.second_half for p in good), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (statistics.median(p.doc["peak_rss_mb"] for p in good), "MB"),
        }

    # -- traced ----------------------------------------------------------

    def measure_traced(self) -> dict:
        """Rounds of (untraced pass, traced pass) on the same inputs; on
        parallel-resume one worker, since spans stay in the tracing process,
        plus the untraced runs for checkpoint overhead and pool scaling."""
        w = self.args.workload
        workers = 1 if w == "parallel-resume" else 2
        rounds = []
        while True:
            t0 = time.perf_counter()
            ops = self.ops(0, workers)  # the same inputs, so counts repeat exactly
            plain = self.checked_pass(ops)
            traced = self.checked_pass(ops, trace=True)
            extra = {}
            if w == "parallel-resume":
                extra = self._pool_and_checkpoint()
            rounds.append((plain, traced, extra, time.perf_counter() - t0))
            if not (plain.ok and traced.ok) or not self.time_left(rounds[-1][3]):
                break
        good = [r for r in rounds if r[0].complete and r[1].complete]
        if not good:
            return {}
        self.notes = f"{len(good)} rounds of one untraced and one traced pass"
        metrics = {}
        for name in good[0][1].doc["trace"]:
            metrics[name] = (statistics.median(r[1].doc["trace"][name]["value"] for r in good),
                             good[0][1].doc["trace"][name]["unit"])
        metrics["trace.traced_wall_s"] = (statistics.median(r[1].wall for r in good), "s")
        metrics["trace.untraced_wall_s"] = (statistics.median(r[0].wall for r in good), "s")
        metrics["trace.overhead_s"] = (statistics.median(r[1].wall - r[0].wall for r in good),
                                       "s")
        for name in ("survey.checkpoint.overhead_s", "survey.pool.scaling_efficiency"):
            values = [r[2][name] for r in good if name in r[2]]
            metrics[name] = (statistics.median(values) if values else 0.0,
                             "s" if name.endswith("_s") else "ratio")
        for r in good:
            coverage = r[1].doc["trace"]["trace.self_time_coverage"]["value"]
            if abs(coverage - 1.0) > tracer.COVERAGE_TOLERANCE:
                r[1].failures.append(f"span self times cover {coverage:.4f} of the traced "
                                     f"wall time (tolerance {tracer.COVERAGE_TOLERANCE})")
        return metrics

    def _pool_and_checkpoint(self) -> dict:
        walls = {}
        for key, workers, ckpt in (("on2", 2, True), ("off2", 2, False), ("off1", 1, False)):
            p = self.checked_pass(wl.resume_ops(str(self.work), workers, ckpt)[:1])
            if not p.ok:
                return {}
            walls[key] = p.raw_wall  # passes back to back: compare raw times
        return {"survey.checkpoint.overhead_s": walls["on2"] - walls["off2"],
                "survey.pool.scaling_efficiency": walls["off1"] / (2 * walls["off2"])}


def _p95(sorted_values: list[float]) -> float:
    """95th percentile; with N >= 200 samples at least 10 lie beyond it."""
    if len(sorted_values) < 2:
        return sorted_values[0]
    return statistics.quantiles(sorted_values, n=20, method="inclusive")[18]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--golden", default=str(GOLDEN),
                        help="expectations file (the self-test passes a doctored copy)")
    args = parser.parse_args()

    missing = [p for p in (ROOT / "src" / "ordstat" / "__init__.py", Path(args.golden),
                           GOLDEN_CSV, ROOT / "BENCHMARK.json") if not p.exists()]
    if missing:
        print(f"run.py: missing {', '.join(map(str, missing))}: run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = bench["per_layer" if args.trace else "end_to_end"]

    runner = Runner(args)
    runner.work.mkdir(parents=True, exist_ok=True)
    try:
        metrics = runner.measure_traced() if args.trace else runner.measure()
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)

    attempted = sum(len(p.ops) for p in runner.passes)
    failed = sum(len(p.ops) if p.doc is None else len(p.failures) for p in runner.passes)
    failed = min(failed, attempted)
    metrics["fail_frac"] = (failed / attempted if attempted else 1.0, "ratio")
    if any(m["name"] not in metrics for m in wanted):
        print("run.py: no complete pass, so no metrics", file=sys.stderr)
        return 1
    for m in wanted:
        if metrics[m["name"]][1] != m["unit"]:
            raise ValueError(f"{m['name']} is measured in {metrics[m['name']][1]}, "
                             f"BENCHMARK.json says {m['unit']}")

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: {runner.notes}")
    print(f"fail_frac {failed}/{attempted} operations")
    for m in wanted:
        value, unit = metrics[m["name"]]
        print(f"  {m['name']:48s} {value:14.6g} {unit}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                          for m in wanted}}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
