import json
import shlex
from pathlib import Path

import pytest

import ordstat.cli as cli
from ordstat import arith, generators, orders, survey
from ordstat.arith import OverflowError64, is_prime
from ordstat.cli import main
from ordstat.survey import KINDS

GOLDEN_DIR = Path(__file__).parent / "golden"


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


def test_compute_order(capsys):
    doc = run_json(capsys, ["compute", "order", "--e", "2", "--n", "12"])
    assert doc["n"] == 12
    assert doc["n_coprime"] == 3
    assert doc["lambda"] == 2  # lambda(12) = lcm(lambda(4), lambda(3))
    assert doc["ord_star"] == 2
    assert "index" not in doc
    doc = run_json(capsys, ["compute", "order", "--e", "2", "--n", "7"])
    assert doc["ord_star"] == 3 and doc["index"] == 2


def test_compute_lambda(capsys):
    doc = run_json(capsys, ["compute", "lambda", "--n", "8"])
    assert doc["lambda"] == 2


def test_compute_core_omega_smooth(capsys):
    assert run_json(capsys, ["compute", "core", "--n", "12"])["core"] == 6
    assert run_json(capsys, ["compute", "omega", "--n", "30"])["omega"] == 3
    doc = run_json(capsys, ["compute", "smooth-part", "--n", "90", "--primes", "2,3"])
    assert doc["smooth_part"] == 18


def test_compute_classify(capsys):
    doc = run_json(capsys, ["compute", "classify", "--p", "7", "--e", "2"])
    assert doc["class"] == "M"


def test_compute_domain_error_exits_2(capsys):
    assert main(["compute", "order", "--e", "2", "--n", "0"]) == 2
    assert "error" in capsys.readouterr().err


def test_usage_error_exits_2(capsys):
    assert main(["compute", "order", "--n", "12"]) == 2  # missing --e
    assert main(["survey", "--kind", "nonsense", "--max", "100"]) == 2
    capsys.readouterr()


def test_period_power_and_bbs_alias(capsys):
    doc = run_json(capsys, ["period", "power", "--e", "2", "--n", "11", "--u", "3",
                            "--empirical"])
    assert doc["analytic"] == 4
    assert doc["empirical_period"] == 4
    assert doc["tail"] == 0
    assert doc["agree"] is True
    alias = run_json(capsys, ["period", "bbs", "--n", "11", "--u", "3", "--empirical"])
    assert alias == doc
    # bbs fixes e = 2 and refuses an explicit --e
    assert main(["period", "bbs", "--e", "3", "--n", "11", "--u", "3"]) == 2
    capsys.readouterr()


def test_period_lcg(capsys):
    doc = run_json(capsys, ["period", "lcg", "--e", "3", "--b", "1", "--n", "10",
                            "--u", "0", "--empirical"])
    assert doc["exact"] is None
    assert doc["divisor_bound"] == 8
    assert doc["empirical_period"] == 4
    assert doc["agree"] is True


# (argv, exit code, exact stdout) for every compute and period subcommand
EXACT_OUTPUT = [
    ("compute order --e 2 --n 12", 0,
     '{"schema": 1, "n": 12, "e": 2, "n_coprime": 3, "lambda": 2, "ord_star": 2}\n'),
    ("compute order --e 2 --n 7", 0,
     '{"schema": 1, "n": 7, "e": 2, "n_coprime": 7, "lambda": 6, "ord_star": 3,'
     ' "index": 2}\n'),
    ("compute order --e 10 --n 1", 0,
     '{"schema": 1, "n": 1, "e": 10, "n_coprime": 1, "lambda": 1, "ord_star": 1}\n'),
    ("compute order --e 2 --n 0", 2, ""),
    ("compute lambda --n 8", 0, '{"schema": 1, "n": 8, "lambda": 2}\n'),
    ("compute core --n 12", 0, '{"schema": 1, "n": 12, "core": 6}\n'),
    ("compute omega --n 30", 0, '{"schema": 1, "n": 30, "omega": 3}\n'),
    ("compute smooth-part --n 90 --primes 2,3", 0,
     '{"schema": 1, "n": 90, "primes": [2, 3], "smooth_part": 18}\n'),
    ("compute smooth-part --n 360 --primes 5,2,2", 0,
     '{"schema": 1, "n": 360, "primes": [2, 5], "smooth_part": 40}\n'),
    ("compute classify --p 7 --e 2", 0, '{"schema": 1, "p": 7, "e": 2, "class": "M"}\n'),
    ("compute classify --p 1000003 --e 2 --epsilon-cap 0.5", 0,
     '{"schema": 1, "p": 1000003, "e": 2, "class": "M"}\n'),
    # exact set: gcd(e - 1, n) = 1 and the shifted seed is coprime to n
    ("period lcg --e 3 --b 1 --n 7 --u 0", 0,
     '{"schema": 1, "generator": "lcg", "e": 3, "b": 1, "n": 7, "u0": 0, "exact": 6,'
     ' "divisor_bound": 6}\n'),
    ("period lcg --e 3 --b 1 --n 7 --u 0 --empirical", 0,
     '{"schema": 1, "generator": "lcg", "e": 3, "b": 1, "n": 7, "u0": 0, "exact": 6,'
     ' "divisor_bound": 6, "empirical_period": 6, "tail": 0, "agree": true}\n'),
    # exact None: gcd(e - 1, n) = 2
    ("period lcg --e 3 --b 1 --n 10 --u 0", 0,
     '{"schema": 1, "generator": "lcg", "e": 3, "b": 1, "n": 10, "u0": 0, "exact": null,'
     ' "divisor_bound": 8}\n'),
    ("period lcg --e 3 --b 1 --n 10 --u 0 --empirical", 0,
     '{"schema": 1, "generator": "lcg", "e": 3, "b": 1, "n": 10, "u0": 0, "exact": null,'
     ' "divisor_bound": 8, "empirical_period": 4, "tail": 0, "agree": true}\n'),
    ("period lcg --e 1 --b 1 --n 10 --u 0", 2, ""),
    ("period power --e 2 --n 11 --u 3", 0,
     '{"schema": 1, "generator": "power", "e": 2, "n": 11, "u0": 3, "analytic": 4}\n'),
    ("period power --e 3 --n 77 --u 2 --empirical", 0,
     '{"schema": 1, "generator": "power", "e": 3, "n": 77, "u0": 2, "analytic": 4,'
     ' "empirical_period": 4, "tail": 1, "agree": true}\n'),
    ("period power --e 2 --n 11 --u 1", 2, ""),
    ("period bbs --n 11 --u 3", 0,
     '{"schema": 1, "generator": "power", "e": 2, "n": 11, "u0": 3, "analytic": 4}\n'),
    ("period bbs --n 11 --u 3 --empirical", 0,
     '{"schema": 1, "generator": "power", "e": 2, "n": 11, "u0": 3, "analytic": 4,'
     ' "empirical_period": 4, "tail": 0, "agree": true}\n'),
    ("period bbs --e 3 --n 11 --u 3", 2, ""),  # bbs fixes e = 2
    ("period bbs --e --n 11 --u 3", 2, ""),  # --e is no prefix of --empirical
    ("compute classify --p 8 --e 2", 2, ""),  # p must be prime
    ("compute classify --p 1 --e 2", 2, ""),
]


@pytest.mark.parametrize("argv, code, stdout", EXACT_OUTPUT, ids=[a for a, _, _ in EXACT_OUTPUT])
def test_compute_and_period_output_is_exact(capsys, argv, code, stdout):
    assert main(argv.split()) == code
    assert capsys.readouterr().out == stdout


def _readme_examples():
    """(argv, shown output lines) for each `$ ordstat` line of the README."""
    lines = (Path(__file__).parent.parent / "README.md").read_text().splitlines()
    examples = []
    for line in lines:
        if line.startswith("$ ordstat "):
            examples.append((shlex.split(line[len("$ ordstat "):], comments=True), []))
        elif line.startswith("```"):
            examples.append(None)
        elif examples and examples[-1] is not None:
            examples[-1][1].append(line)
    return [ex for ex in examples if ex is not None]


def test_readme_examples_print_what_they_show(capsys):
    shown = [(argv, out) for argv, out in _readme_examples() if argv[0] != "survey"]
    assert len(shown) == 6 and all(out for _, out in shown), shown
    for argv, out in shown:
        assert main(argv) == 0
        printed = capsys.readouterr().out
        if len(out) == 1:
            assert printed == out[0] + "\n", argv
        else:  # wrapped in the README
            assert json.loads(printed) == json.loads(" ".join(out)), argv


def test_survey_class_counts_json(capsys):
    doc = run_json(capsys, ["survey", "--kind", "class-counts", "--e", "2",
                            "--max", "1000"])
    counts = doc["class_counts"]
    assert counts["L"] + counts["M"] + counts["H"] == 168
    assert doc["total"] == 168


def test_survey_every_kind(capsys):
    for kind in KINDS:
        doc = run_json(capsys, ["survey", "--kind", kind, "--max", "300"])
        assert doc["kind"] == kind and doc["total"] > 0, doc


def test_survey_empty_range_exits_2(capsys):
    assert main(["survey", "--kind", "ord-n", "--max", "10"]) == 2
    capsys.readouterr()


def test_survey_without_a_worker_exits_2(capsys):
    for workers in ("0", "-3"):
        assert main(["survey", "--kind", "ord-n", "--max", "100", "--workers", workers]) == 2
        assert "workers must be >= 1" in capsys.readouterr().err


def test_survey_without_a_sample_exits_2(capsys):
    for size in ("0", "-5"):
        assert main(["survey", "--kind", "rsa-pair", "--max", "30", "--sample-size", size]) == 2
        assert "sample_size must be >= 1" in capsys.readouterr().err


def test_survey_epsilon_off_its_cap_exits_2(capsys):
    # eps(2^80) = 2/log log 2^80 = 0.498 < 1/2: no single threshold exponent
    assert main(["survey", "--kind", "ord-n", "--max", str(2**80),
                 "--epsilon-cap", "0.5"]) == 2
    assert "cap" in capsys.readouterr().err


def test_survey_conflicting_flags_exit_2(capsys):
    assert main(["survey", "--kind", "lambda-lambda", "--max", "100",
                 "--exponent", "0.5"]) == 2
    capsys.readouterr()


def test_survey_output_is_byte_stable(tmp_path, capsys):
    args = ["survey", "--kind", "lambda-n", "--max", "2000", "--format", "csv"]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2), "--workers", "2", "--chunk", "123"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    capsys.readouterr()


def test_survey_csv_matches_golden(tmp_path, capsys):
    out = tmp_path / "lambda_n_2000.csv"
    assert main(["survey", "--kind", "lambda-n", "--max", "2000",
                 "--format", "csv", "--out", str(out)]) == 0
    capsys.readouterr()
    golden = (GOLDEN_DIR / "survey_lambda_n_2000.csv").read_bytes()
    assert out.read_bytes() == golden


def test_survey_csv_shape(capsys):
    assert main(["survey", "--kind", "ord-n", "--max", "100", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == "kind,e,x_max,total,exceed,fraction,bin_lo,bin_hi,bin_count"
    assert len(lines) == 1 + 1 + 21  # header, summary, 21 bins
    summary = lines[1].split(",")
    assert summary[0] == "ord-n" and summary[6] == ""
    first_bin = lines[2].split(",")
    assert (first_bin[6], first_bin[7]) == ("0.00", "0.05")
    assert lines[-1].split(",")[7] == "1.05"


def test_survey_json_round_trips(capsys):
    doc = run_json(capsys, ["survey", "--kind", "ord-n", "--max", "200"])
    assert json.loads(json.dumps(doc)) == doc
    assert doc["schema"] == 1
    assert doc["fraction"] == f"{doc['exceed']}/{doc['total']}"


def test_corrupt_checkpoint_exits_4(tmp_path, capsys):
    # text that is not JSON, bytes that are not UTF-8, and JSON that is no object
    for content, message in ((b"not a checkpoint at all", "not valid JSON"),
                             (b"\xff\xfe", "not valid JSON"),
                             (b"[]", "not a JSON object"),
                             (b'"x"', "not a JSON object"),
                             (b"null", "not a JSON object")):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(content)
        assert main(["survey", "--kind", "lambda-n", "--max", "500",
                     "--checkpoint", str(bad)]) == 4, content
        assert message in capsys.readouterr().err, content


def test_unwritable_checkpoint_exits_4_at_the_first_chunk(tmp_path, capsys, monkeypatch):
    # checkpoint writes are throttled, but the first chunk's is not: a path
    # that cannot be written fails before the rest of the survey runs
    evaluated, evaluate = [], survey.evaluate_chunk
    monkeypatch.setattr(survey, "evaluate_chunk",
                        lambda cfg, lo, hi: evaluated.append(lo) or evaluate(cfg, lo, hi))
    assert main(["survey", "--kind", "lambda-n", "--max", "5000", "--chunk", "100",
                 "--checkpoint", str(tmp_path / "missing" / "x.ckpt")]) == 4
    assert len(evaluated) <= 1
    assert "x.ckpt" in capsys.readouterr().err


def test_overflow_maps_to_exit_3(capsys, monkeypatch):
    def boom(*a, **kw):
        raise OverflowError64("synthetic")
    monkeypatch.setattr(cli, "order_profile", boom)
    assert main(["compute", "order", "--e", "2", "--n", "7"]) == 3
    assert "overflow" in capsys.readouterr().err


def test_parser_is_built_once_and_reused(capsys):
    argvs = [
        ["compute", "order", "--e", "2", "--n", "209"],
        ["compute", "order", "--n", "12"],  # usage error: exit 2
        ["survey", "--kind", "lambda-n", "--max", "300"],
        ["period", "power", "--e", "2", "--n", "11", "--u", "3", "--empirical"],
        ["compute", "order", "--e", "2", "--n", "209"],
    ]
    first = []
    for argv in argvs:
        cli.build_parser.cache_clear()
        code = main(argv)
        first.append((code, *capsys.readouterr()))
    assert [c for c, _, _ in first] == [0, 2, 0, 0, 0]
    cli.build_parser.cache_clear()
    again = []
    for argv in argvs:
        code = main(argv)
        again.append((code, *capsys.readouterr()))
    assert again == first
    assert cli.build_parser.cache_info().misses == 1
    assert cli.build_parser() is cli.build_parser()


def _prime(bits, start, mod4=None):
    p = start | (1 << (bits - 1)) | 1
    while not is_prime(p) or (mod4 is not None and p % 4 != mod4):
        p += 2
    return p


def _record_factorize(monkeypatch):
    """The list every later arith.factorize argument is appended to."""
    real = arith.factorize
    seen = []

    def recording(n):
        seen.append(n)
        return real(n)

    for module in (arith, orders, generators, cli):
        if getattr(module, "factorize", None) is real:
            monkeypatch.setattr(module, "factorize", recording)
    return seen


def test_query_factors_its_modulus_once(capsys, monkeypatch):
    seen = _record_factorize(monkeypatch)
    p, q = _prime(24, 0x9E3779), _prime(37, 0x7F4A7C159)
    order_n = 2**3 * p * q
    order_argv = ["compute", "order", "--e", "2", "--n", str(order_n)]
    r, s = _prime(30, 0x2545F491, mod4=3), _prime(30, 0x3C6EF372, mod4=3)
    bbs_argv = ["period", "bbs", "--n", str(r * s), "--u", "3"]
    for argv, modulus, largest in ((order_argv, order_n, q), (bbs_argv, r * s, max(r, s))):
        seen.clear()
        assert main(argv) == 0
        # the coprime part is read off the one factorization of the
        # modulus; besides it only p - 1 for the primes p of it are factored
        assert seen.count(modulus) == 1, seen
        assert all(m < largest for m in seen if m != modulus), seen
    capsys.readouterr()


def test_max_seed_period_never_factors_lambda(monkeypatch):
    # lambda(n) is a 58-bit value here; its primes come from p - 1 and q - 1
    p, q = 1073741827, 1073741831
    n = p * q
    want = {e: orders.coprime_order(e, orders.carmichael_lambda(arith.factorize(n)))
            for e in (2, 3, 10)}
    seen = _record_factorize(monkeypatch)
    for e in (2, 3, 10):
        seen.clear()
        assert generators.max_seed_period(e, n) == want[e]
        assert seen.count(n) == 1, seen
        assert all(m < q for m in seen if m != n), seen
        assert len(set(seen)) == len(seen), seen
    # p^2 | n puts p among the primes of lambda(n): its p - 1 is factored once
    n = p * p * 7
    for e in (2, 3, 10):
        want = orders.coprime_order(e, orders.carmichael_lambda(arith.factorize(n)))
        seen.clear()
        assert generators.max_seed_period(e, n) == want
        assert seen.count(p - 1) == 1 and len(set(seen)) == len(seen), seen
