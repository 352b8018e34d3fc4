"""Multiplicative order statistics, generator periods, and range surveys.

Importing the package loads neither dataclasses nor typing: the records are
plain classes (_record.Record), and every module keeps its annotations as
strings (from __future__ import annotations), naming types it never imports.
"""

from .arith import (Factorization, OverflowError64, U64_MAX, factorize, is_prime,
                    lcm, primes_in_range)
from .orders import (OrderProfile, carmichael_lambda, coprime_order,
                     coprime_part, multiplicative_order, omega, order_profile,
                     smooth_part, squarefree_core)
from .generators import (CycleResult, LcgSpec, PowerGenSpec, brent_cycle,
                         lcg_period_analytic, max_seed_period,
                         power_period_analytic)
from .classify import (DEFAULT_EPSILON, EpsilonFn, classify_prime,
                       lcm_order_lower_bound, prime_orders_lower_bound)
from .survey import (CLASS_COUNTS, CheckpointError, HIGH_FACTOR,
                     LAMBDA_LAMBDA, LAMBDA_N, ONE_MINUS_DELTA, ORD_N,
                     RSA_PAIR, SHIFTED_PRIME, SurveyConfig, SurveyResult,
                     evaluate_chunk, merge_results, run_survey)

__version__ = "0.2.0"
