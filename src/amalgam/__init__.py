"""Weighted inequalities between weak Lebesgue and amalgam spaces on the
line, over non-atomic Radon measures: norms, operators, weight
conditions, the midpoint covering sweep, and a scenario-driven
verification harness."""

from .measure import (DivergenceError, EvaluationError, IntervalRC, Partition,
                      QuadratureError, RadonMeasure, custom_measure,
                      growth_constant, integrate, lebesgue, make_interval,
                      make_measure, partition, power_measure)
from .functions import (RealFunction, indicator, make_function, power_function,
                        power_twist, product, riesz_kernel_function, scaled,
                        table_function, tent)
from .norms import (Exponent, LqTable, TrivialSpaceError, amalgam_norm,
                    block_norm, default_r_grid, level_set_mass, lq_norm,
                    weak_norm)
from .operators import (Kernel, farfield_bound_check, make_kernel, maximal,
                        maximal_profile, potential, potential_profile,
                        riesz_kernel, riesz_potential, riesz_via_power_measure,
                        table_kernel)
from .weights import (SubsetSampler, Weight, WeightConditionResult,
                      a_infty_epsilon_delta, a_r_constant,
                      default_interval_family, make_weight,
                      reverse_holder_check, thm21_condition)
from .covering import (MidpointedFamily, Trials, make_family, midpoint,
                       random_family, select_cover)
from .harness import (ConfigError, HypothesisRejected, NumericalFailure,
                      Scenario, VerificationReport, default_family,
                      load_scenario, parse_scenario, run_scenario,
                      sample_grid, verify_scenario, write_report)

__version__ = "0.1.0"
