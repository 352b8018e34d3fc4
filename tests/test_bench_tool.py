"""tools/bench.py, the query-path and survey bench, refuses a wrong answer."""

import importlib.util
import json
from pathlib import Path

from ordstat.arith import Factorization, factorize

BENCH = Path(__file__).resolve().parent.parent / "tools" / "bench.py"


def _load_bench():
    spec = importlib.util.spec_from_file_location("ordstat_bench", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_refuses_a_wrong_factorization_and_a_wrong_period(monkeypatch, capsys):
    bench = _load_bench()
    p, q = 1000003, 1000039  # both = 3 mod 4
    fac, n = {p: 1, q: 1}, p * q
    assert bench.check_factorization(fac, factorize(n)) is None
    assert bench.check_factorization(fac, Factorization(n, ((n, 1),))) is not None
    order = bench.run_cli(["compute", "order", "--e", "2", "--n", str(n)])
    assert bench.check_order(2, fac, order) is None
    assert bench.check_order(2, fac, {**order, "ord_star": 2 * order["ord_star"]}) is not None
    period = bench.run_cli(["period", "bbs", "--n", str(n), "--u", "3"])
    assert bench.check_bbs(3, fac, period) is None
    assert bench.check_bbs(3, fac, {**period, "analytic_tail": period["analytic_tail"] + 1})
    # a quick run whose factorize calls every odd value prime, and whose
    # survey is at a base other than its golden's, exits 1 and names both
    monkeypatch.setattr(bench, "factorize", lambda m: Factorization(m, ((m, 1),)) if m & 1
                        else factorize(m))
    key, config = bench.SURVEY["quick"]
    monkeypatch.setitem(bench.SURVEY, "quick", (key, {**config, "e": 2}))
    assert bench.main(["--quick"]) == 1
    err = capsys.readouterr().err
    assert "WRONG: factorize(" in err and f"WRONG: survey {key} at chunk 7" in err


def test_bench_writes_a_report_only_with_a_known_commit(monkeypatch, tmp_path, capsys):
    bench = _load_bench()
    out = tmp_path / "BENCH_9.json"
    before = sorted(bench.ROOT.glob("BENCH_*.json"))
    # a tree without .git, as `git archive` makes it: no report is written,
    # neither to --out nor to the next BENCH_<n>.json at the root
    monkeypatch.setattr(bench, "git_commit", lambda: None)
    assert bench.main(["--quick", "--out", str(out)]) == 2
    assert bench.main([]) == 2
    assert "give --commit" in capsys.readouterr().err
    assert not out.exists() and sorted(bench.ROOT.glob("BENCH_*.json")) == before
    assert bench.main(["--quick", "--out", str(out), "--commit", "0123abc"]) == 0
    report = json.loads(out.read_text())
    assert report["commit"] == "0123abc" and report["wrong"] == 0
    assert set(report["cold"]) == {"interpreter", "set-up", "compute order", "period bbs"}
    assert set(report["survey"]) == {"golden", "workers", "chunk 10000", "chunk 7"}
