"""Span tracing of ordstat's layers from outside the package.

Each traced function is wrapped, and the wrapper is bound in place of the
original under every name in the ordstat modules that refers to it (the
defining module and every module that imported it), so calls between
modules are seen without editing the package.  A function or module that
no longer exists is skipped, and its metrics read 0.

A span is (name, start, end, parent), kept in flat arrays in memory and
written out after the pass.  A span's self time is its duration minus the
durations of its direct children; since every operation's work runs under
a root span (cli.main or survey.run_survey), the self times of all spans
add up to the traced wall time.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array

MODULES = ("arith", "orders", "classify", "generators", "survey", "cli")

# (span name, defining module, attribute path).  The name's first part is
# the layer the span's self time is charged to.
TARGETS = (
    ("cli.main", "cli", "main"),
    ("cli.survey_result_csv", "cli", "survey_result_csv"),
    ("survey.run_survey", "survey", "run_survey"),
    ("survey.evaluate_chunk", "survey", "evaluate_chunk"),
    ("survey.evaluate_item", "survey", "evaluate_item"),
    ("survey.merge_results", "survey", "merge_results"),
    ("survey.log_ratio_bin", "survey", "log_ratio_bin"),
    ("survey.rsa_pair_count", "survey", "rsa_pair_count"),
    ("survey.FactorCache.factorize", "survey", "FactorCache.factorize"),
    ("generators.power_period_analytic", "generators", "power_period_analytic"),
    ("generators.brent_cycle", "generators", "brent_cycle"),
    ("classify.classify_order_value", "classify", "classify_order_value"),
    ("classify.EpsilonFn.exponent", "classify", "EpsilonFn.exponent"),
    ("classify.power_compare", "classify", "power_compare"),
    ("orders.coprime_order", "orders", "coprime_order"),
    ("orders.carmichael_lambda", "orders", "carmichael_lambda"),
    ("arith.factorize", "arith", "factorize"),
    ("arith.is_prime", "arith", "is_prime"),
    ("arith.primes_in_range", "arith", "primes_in_range"),
)

# Per-call figures reported besides <name>.calls:
# (metric, span name, "incl" or "self", seconds -> unit factor, unit).
PER_CALL = (
    ("arith.factorize.us_per_call", "arith.factorize", "incl", 1e6, "us"),
    ("arith.is_prime.us_per_call", "arith.is_prime", "incl", 1e6, "us"),
    ("arith.primes_in_range.ms_per_call", "arith.primes_in_range", "incl", 1e3, "ms"),
    ("orders.coprime_order.us_per_call", "orders.coprime_order", "incl", 1e6, "us"),
    ("orders.coprime_order.self_us_per_call", "orders.coprime_order", "self", 1e6, "us"),
    ("orders.carmichael_lambda.us_per_call", "orders.carmichael_lambda", "incl", 1e6, "us"),
    ("classify.EpsilonFn.exponent.us_per_call", "classify.EpsilonFn.exponent", "incl", 1e6, "us"),
    ("classify.power_compare.us_per_call", "classify.power_compare", "incl", 1e6, "us"),
    ("classify.classify_order_value.self_us_per_call", "classify.classify_order_value",
     "self", 1e6, "us"),
    ("survey.evaluate_item.self_us_per_call", "survey.evaluate_item", "self", 1e6, "us"),
    ("survey.log_ratio_bin.us_per_call", "survey.log_ratio_bin", "incl", 1e6, "us"),
    ("survey.rsa_pair_count.ms_per_call", "survey.rsa_pair_count", "incl", 1e3, "ms"),
    ("survey.merge_results.us_per_call", "survey.merge_results", "incl", 1e6, "us"),
    ("generators.power_period_analytic.ms_per_call", "generators.power_period_analytic",
     "incl", 1e3, "ms"),
    ("generators.brent_cycle.ms_per_call", "generators.brent_cycle", "incl", 1e3, "ms"),
    ("cli.main.self_ms_per_call", "cli.main", "self", 1e3, "ms"),
    ("cli.survey_result_csv.us_per_call", "cli.survey_result_csv", "incl", 1e6, "us"),
)

# Self-time coverage must be within this share of the traced wall time.
COVERAGE_TOLERANCE = 0.01


def _resolve(owner, path: str):
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    return owner, attr


class Tracer:
    def __init__(self):
        self.names = [t[0] for t in TARGETS]
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack = [-1]
        self._bindings: list[tuple[object, str, object]] = []

    def _wrap(self, name_id: int, fn):
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Bind a wrapper in place of every reference to each target."""
        modules = {}
        for mod in MODULES:
            try:
                modules[mod] = importlib.import_module(f"ordstat.{mod}")
            except ImportError:
                continue
        scanned = [importlib.import_module("ordstat"), *modules.values()]
        for name_id, (_, mod, path) in enumerate(TARGETS):
            owner, attr = _resolve(modules.get(mod), path)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                continue
            wrapper = self._wrap(name_id, original)
            if "." in path:  # a method: rebinding the class attribute covers every caller
                sites = [(owner, attr)]
            else:
                sites = [(m, key) for m in scanned for key, val in vars(m).items()
                         if val is original]
            for site, key in sites:
                self._bindings.append((site, key, original))
                setattr(site, key, wrapper)

    def uninstall(self) -> None:
        for site, key, original in reversed(self._bindings):
            setattr(site, key, original)
        self._bindings.clear()

    def summary(self, traced_wall_s: float) -> dict:
        """Per-layer metrics from the recorded spans."""
        n = len(self.span_start)
        k = len(self.names)
        calls = [0] * k
        incl = [0] * k
        child = array("q", bytes(8 * n))
        misses = 0
        cache_id = self.names.index("survey.FactorCache.factorize")
        factorize_id = self.names.index("arith.factorize")
        for sid in range(n):
            nid = self.span_name[sid]
            dur = self.span_end[sid] - self.span_start[sid]
            calls[nid] += 1
            incl[nid] += dur
            parent = self.span_parent[sid]
            if parent >= 0:
                child[parent] += dur
                if nid == factorize_id and self.span_name[parent] == cache_id:
                    misses += 1
        self_ns = [0] * k
        for sid in range(n):
            self_ns[self.span_name[sid]] += (self.span_end[sid] - self.span_start[sid]
                                             - child[sid])
        out: dict[str, tuple[float, str]] = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = (calls[nid], "count")
        for metric, name, kind, scale, unit in PER_CALL:
            nid = self.names.index(name)
            total = incl[nid] if kind == "incl" else self_ns[nid]
            out[metric] = (total * 1e-9 * scale / calls[nid] if calls[nid] else 0.0, unit)
        lookups = calls[cache_id]
        out["survey.factor_cache.hit_ratio"] = (
            (lookups - misses) / lookups if lookups else 0.0, "ratio")
        layers = {}
        for nid, name in enumerate(self.names):
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0) + self_ns[nid]
        for layer in MODULES:
            out[f"layer.{layer}.self_s"] = (layers.get(layer, 0) * 1e-9, "s")
        self_sum = sum(self_ns) * 1e-9
        out["trace.spans"] = (n, "count")
        out["trace.traced_wall_s"] = (traced_wall_s, "s")
        out["trace.self_time_coverage"] = (
            self_sum / traced_wall_s if traced_wall_s else 0.0, "ratio")
        return {name: {"value": v, "unit": u} for name, (v, u) in out.items()}

    def write(self, path: str) -> None:
        """Spans as a JSON header line, then the four raw arrays in order."""
        with open(path, "wb") as fh:
            header = {"names": self.names, "spans": len(self.span_start),
                      "arrays": [["name", "H"], ["parent", "l"], ["start_ns", "q"],
                                 ["end_ns", "q"]]}
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)
