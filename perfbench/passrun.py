"""One pass of a workload, in a fresh interpreter.

    python3 passrun.py SPEC.json RESULT.json

SPEC holds the path of the package sources, the operations and whether to
trace.  The pass first measures set-up (import of ordstat and ordstat.cli
plus the lazy trial-division prime table, as every CLI invocation pays it),
then runs the operations one after another in a closed loop, timing each
call of the public entry point alone.  Outputs are decoded and written to
RESULT after the last operation, so no check runs inside a timed region.
"""

import time

T_START = time.perf_counter()

import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

# Operation time between two reference slices (see _reference).
REFERENCE_EVERY_S = 0.5


def _setup(src: str) -> float:
    sys.path.insert(0, src)
    import ordstat
    import ordstat.cli
    ordstat.factorize(2)  # builds the trial-division prime table
    setup_s = time.perf_counter() - T_START
    if not Path(ordstat.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise ImportError(f"ordstat imported from {ordstat.__file__}, not from {src}")
    return setup_s


def _reference(refs: list, position: int, procs: int = 1) -> None:
    """Time fixed reference work (numtheory.reference_slice) after
    `position` operations, in `procs` processes at once (as many as the
    operations keep busy); the median of three slices is recorded.  The
    parent scales each operation's time by the slices around it, which
    cancels the drift of a shared machine's speed.  The collector is off so
    that the program's heap does not slow the slices."""
    import numtheory
    enabled = gc.isenabled()
    gc.disable()
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        children = [os.fork() for _ in range(procs - 1)]
        if 0 in children:  # a helper: one slice, then leave without cleanup
            numtheory.reference_slice()
            os._exit(0)
        numtheory.reference_slice()
        for pid in children:
            os.waitpid(pid, 0)
        times.append(time.perf_counter() - t0)
    refs.append([position, sorted(times)[1], procs])
    if enabled:
        gc.enable()


def _survey_config(config: dict):
    from ordstat.survey import SurveyConfig
    return SurveyConfig(**config)


def _halve_checkpoint(op: dict) -> None:
    """Write a checkpoint of the same survey holding only the first half of
    the chunks the full run recorded.  The config digest and every other
    field are the program's own; the first-half counts come from a survey
    of exactly those chunks' range, run once and kept in partial_cache."""
    from ordstat.survey import run_survey
    if os.path.exists(op["half"]):
        os.remove(op["half"])
    with open(op["full"], encoding="utf-8") as fh:
        doc = json.load(fh)
    done = doc["done"][: len(doc["done"]) // 2]
    lo, hi = done[0][0], done[-1][1]
    cache = Path(op["partial_cache"])
    partial = json.loads(cache.read_text()) if cache.exists() else {}
    if partial.get("range") != [lo, hi]:
        cfg = _survey_config({**op["config"], "x_min": lo, "x_max": hi - 1})
        partial = {"range": [lo, hi],
                   "result": run_survey(cfg, workers=op["workers"]).to_dict()}
        cache.write_text(json.dumps(partial))
    doc["done"] = done
    doc["partial"] = {k: partial["result"][k] for k in doc["partial"]}
    with open(op["half"], "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _run_op(op: dict):
    """Run one timed operation; returns (seconds, raw output)."""
    if op["type"] == "survey":
        import ordstat.survey
        cfg = _survey_config(op["config"])
        ckpt = op["checkpoint"]
        if op["resume"] and not os.path.exists(ckpt):
            raise FileNotFoundError(f"no checkpoint to resume from at {ckpt}")
        if ckpt and not op["resume"] and os.path.exists(ckpt):
            os.remove(ckpt)
        t0 = time.perf_counter()
        result = ordstat.survey.run_survey(cfg, workers=op["workers"], checkpoint=ckpt)
        return time.perf_counter() - t0, result
    import ordstat.cli
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        rc = ordstat.cli.main(op["argv"])
    return time.perf_counter() - t0, (rc, buf)


def _decode(op: dict, raw) -> dict:
    if op["type"] == "survey":
        return {"result": raw.to_dict()}
    rc, buf = raw
    out = {"rc": rc, "stdout": buf.getvalue()}
    if op.get("out"):
        out["file"] = Path(op["out"]).read_bytes().decode("utf-8")
    return out


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    setup_s = _setup(spec["src"])
    tracer = None
    if spec.get("trace"):
        from tracer import Tracer
        tracer = Tracer()
    ops_out = []
    refs: list = []
    _reference(refs, 0)  # normalizes set-up, which runs in one process
    procs = max([op["workers"] for op in spec["ops"] if op["type"] == "survey"], default=1)
    if procs > 1:
        _reference(refs, 0, procs)
    since_ref = 0.0
    for op in spec["ops"]:
        if op["type"] == "halve_checkpoint":
            try:
                _halve_checkpoint(op)
            except Exception as exc:  # the resume that follows then fails
                print(f"halving the checkpoint failed: {exc!r}", file=sys.stderr)
            continue
        try:
            if tracer:
                tracer.install()
            try:
                seconds, raw = _run_op(op)
            finally:
                if tracer:
                    tracer.uninstall()
            ops_out.append({"label": op["label"], "seconds": seconds, **_decode(op, raw)})
            since_ref += seconds
        except Exception as exc:  # a failed operation is reported, not fatal
            ops_out.append({"label": op["label"], "error": f"{type(exc).__name__}: {exc}"})
        if since_ref >= REFERENCE_EVERY_S:
            _reference(refs, len(ops_out), procs)
            since_ref = 0.0
    if refs[-1][0] != len(ops_out):
        _reference(refs, len(ops_out), procs)
    ru_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ru_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    doc = {"setup_s": setup_s, "ops": ops_out, "reference": refs,
           "peak_rss_mb": max(ru_self, ru_children) / 1024.0}
    if tracer:
        wall = sum(o.get("seconds", 0.0) for o in ops_out)
        doc["trace"] = tracer.summary(wall)
        if spec.get("spans_out"):
            tracer.write(spec["spans_out"])
    Path(result_path).write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
