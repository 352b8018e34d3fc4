"""Multiplicative order statistics, generator periods, and range surveys.

Importing the package loads neither dataclasses nor typing: the records are
plain classes of one kind (_record.FrozenRecord), values that no code
changes once built, and every module keeps its annotations as strings
(from __future__ import annotations), naming types it never imports.

A survey's logarithms are taken once per item, by survey._decide, and
shared as columns by classify's threshold rule and bin rules, which take
none of their own.
"""

from .arith import Factorization, U64_MAX, factorize, is_prime, primes_in_range
from .orders import (OrderProfile, carmichael_lambda, coprime_order,
                     coprime_part, multiplicative_order, omega, order_profile,
                     smooth_part, squarefree_core)
from .generators import (CycleResult, LcgSpec, PowerGenSpec, brent_cycle,
                         lcg_period_analytic, max_seed_period,
                         power_period_analytic)
from .classify import DEFAULT_EPSILON, EpsilonFn, classify_prime
from .survey import (CLASS_COUNTS, CheckpointError, HIGH_FACTOR,
                     LAMBDA_LAMBDA, LAMBDA_N, ONE_MINUS_DELTA, ORD_N,
                     RSA_PAIR, SHIFTED_PRIME, SurveyConfig, SurveyResult,
                     evaluate_chunk, merge_results, run_survey)

__version__ = "0.3.0"
