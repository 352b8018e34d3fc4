"""tools/bench.py, the query-path bench, refuses a wrong answer."""

import importlib.util
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
    # a quick run whose factorize calls every odd value prime exits 1
    monkeypatch.setattr(bench, "factorize", lambda m: Factorization(m, ((m, 1),)) if m & 1
                        else factorize(m))
    assert bench.main(["--quick"]) == 1
    assert "WRONG: factorize(" in capsys.readouterr().err
