"""Multiplicative order statistics, generator periods, and range surveys.

Importing the package loads none of its submodules: _EXPORTS names the
submodule of each public name, and the package imports that submodule at
the name's first use (PEP 562): `ordstat.factorize` loads arith alone, and a
process that never surveys or classifies loads neither survey nor
classify, nor the decimal, fractions and random they import.  A submodule
(`ordstat.survey`) resolves the same way, and `from ordstat import X`
works for every public name and every submodule.

Nor does the package load dataclasses or typing: the records are plain
classes of one kind (_record.FrozenRecord), values that no code changes
once built, and every module keeps its annotations as strings
(from __future__ import annotations), naming types it never imports.

A survey's logarithms are taken once per item, by survey._decide, and
shared as columns by classify's threshold rule and bin rules, which take
none of their own.
"""

from importlib import import_module

__version__ = "0.4.0"

# submodule: the public names it gives the package
_EXPORTS = {
    "arith": ("Factorization", "U64_MAX", "factorize", "is_prime", "primes_in_range"),
    "orders": ("OrderProfile", "carmichael_lambda", "coprime_order", "coprime_part",
               "multiplicative_order", "omega", "order_profile", "smooth_part",
               "squarefree_core"),
    "generators": ("CycleResult", "LcgSpec", "PowerGenSpec", "brent_cycle",
                   "lcg_period_analytic", "max_seed_period", "power_period_analytic"),
    "classify": ("DEFAULT_EPSILON", "EpsilonFn", "classify_prime"),
    "survey": ("CLASS_COUNTS", "CheckpointError", "HIGH_FACTOR", "LAMBDA_LAMBDA",
               "LAMBDA_N", "ONE_MINUS_DELTA", "ORD_N", "RSA_PAIR", "SHIFTED_PRIME",
               "SurveyConfig", "SurveyResult", "evaluate_chunk", "merge_results",
               "run_survey"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    """A public name or a submodule, imported at its first use; the name is
    then kept in the package, so later reads do not come here."""
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_SOURCE[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_SOURCE})
