"""Multiplicative order statistics, generator periods, and range surveys."""

from .arith import (Factorization, OverflowError64, U64_MAX, factorize, gcd,
                    is_prime, lcm, pow_mod, primes_in_range, sieve_primes)
from .orders import (OrderProfile, carmichael_lambda, coprime_order,
                     coprime_part, multiplicative_order, omega, order_profile,
                     smooth_part, squarefree_core)
from .generators import (CycleResult, LcgPeriod, LcgSpec, PowerGenSpec,
                         brent_cycle, lcg_iterate, lcg_period_analytic,
                         lcg_period_empirical, max_seed_period,
                         power_period_analytic, power_period_empirical)
from .classify import (DEFAULT_EPSILON, EpsilonFn, classify_prime,
                       divisor_quotient_bound, epsilon_default,
                       lcm_order_lower_bound, prime_orders_lower_bound)
from .survey import (CLASS_COUNTS, CheckpointError, HIGH_FACTOR,
                     LAMBDA_LAMBDA, LAMBDA_N, ONE_MINUS_DELTA, ORD_N,
                     RSA_PAIR, SHIFTED_PRIME, SurveyConfig, SurveyResult,
                     evaluate_chunk, merge_results, run_survey)

__version__ = "0.1.0"
