"""Weighted inequalities between weak Lebesgue and amalgam spaces on the
line, over non-atomic Radon measures: norms, operators, weight
conditions, the midpoint covering sweep, and a scenario-driven
verification harness."""

import ctypes
import os

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
                        riesz_kernel, table_kernel)
from .weights import (IntervalFamily, SubsetSampler, Weight,
                      WeightConditionResult, a_infty_epsilon_delta, a_r_constant,
                      default_interval_family, make_weight,
                      reverse_holder_check, thm21_condition)
from .covering import (MidpointedFamily, Trials, make_family, midpoint,
                       random_family, select_cover)
from .harness import (ConfigError, HypothesisRejected, NumericalFailure,
                      Scenario, VerificationReport, load_scenario, parse_scenario, run_scenario,
                      sample_grid, verify_scenario, write_report)


def _keep_freed_heap() -> None:
    """Keep freed memory in glibc's heap for reuse; elsewhere do nothing.

    By default glibc maps a block of 128 KiB or more on its own and unmaps
    it when it is freed, and gives a free heap top of 128 KiB or more back
    to the kernel.  Freeing a mapped block raises both limits, but only to
    that block's size (and twice it).  The toolkit runs many short numpy
    computations on arrays of a few hundred KB (an LqTable build's 61,440
    nodes, a potential_profile batch), so each computation faulted its
    pages in again, at about 2 us a page on a 2-vCPU Xeon: about 330
    minor faults per table build, 25,900 in a pass of the benchmark's 128
    one-shot CLI queries and about 80,000 in a pass over the scenario
    files.  Blocks up to 32 MiB (the ceiling of glibc's own threshold on
    64-bit) now come from the heap, and up to 64 MiB (twice that, as
    glibc pairs them) of free heap top is kept; the two passes then
    fault 3 and at most 21 times.  Both settings are needed, since
    setting either one turns glibc's adjustment of both off.  The
    resident set stays at its high-water mark.
    """
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):   # no confstr, or not glibc's name
        return
    if not libc.startswith("glibc"):
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3
    if mallopt(m_mmap_threshold, 32 << 20):
        mallopt(m_trim_threshold, 64 << 20)


_keep_freed_heap()

__version__ = "0.1.0"
