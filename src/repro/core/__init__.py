"""Core model and algorithms of the paper.

Public surface:

* :class:`Application`, :class:`Workload` — the application model.
* :class:`Platform` — machine parameters.
* Eq. 1 / Eq. 2 evaluators (:mod:`repro.core.powerlaw`,
  :mod:`repro.core.execution`).
* :class:`Schedule` / :class:`SequentialSchedule` — solution objects.
* Dominance theory (:mod:`repro.core.dominance`) and the processor
  allocators (:mod:`repro.core.processor_allocation`).
* The six heuristics, four baselines, and the name registry.
* The structure-of-arrays batch API (:mod:`repro.core.batch`):
  :class:`BatchProblem` / :class:`BatchSchedule`, the ``*_batch``
  twins of the scalar kernels, and :func:`schedule_batch`.
"""

from .application import BASELINE_CACHE_BYTES, Application, Workload
from .baselines import all_proc_cache, fair, random_partition, zero_cache
from .batch import (
    BatchProblem,
    BatchSchedule,
    access_cost_factor_batch,
    equal_finish_allocation_batch,
    execution_times_batch,
    miss_rates_batch,
    sequential_times_batch,
)
from .dominance import (
    cache_weights,
    cache_weights_batch,
    dominance_ratios,
    dominance_ratios_batch,
    is_dominant,
    optimal_cache_fractions,
    optimal_cache_fractions_batch,
    violating_applications,
)
from .execution import (
    amdahl_flops,
    amdahl_speedup,
    execution_time_single,
    execution_times,
    miss_rates,
    sequential_times,
)
from .heuristics import (
    DOMINANT_HEURISTICS,
    dominant_partition,
    dominant_partition_batch,
    dominant_rev_partition,
    dominant_rev_partition_batch,
    dominant_schedule,
    dominant_schedule_batch,
)
from .platform import Platform
from .powerlaw import (
    cache_for_target_miss_rate,
    effective_cache,
    miss_rate,
    miss_rate_fraction,
    useful_fraction_bounds,
)
from .processor_allocation import (
    build_equal_finish_schedule,
    equal_finish_allocation,
    equal_finish_batch,
    equal_finish_makespan,
    lemma2_processor_allocation,
    perfectly_parallel_makespan,
)
from .registry import (
    PAPER_BASELINES,
    PAPER_HEURISTICS,
    SchedulerEntry,
    entries,
    get_entry,
    get_scheduler,
    is_randomized,
    register,
    schedule_batch,
    scheduler_names,
)
from .schedule import BaseSchedule, Schedule, SequentialSchedule

__all__ = [
    "Application",
    "Workload",
    "Platform",
    "BASELINE_CACHE_BYTES",
    "BaseSchedule",
    "Schedule",
    "SequentialSchedule",
    "miss_rate",
    "miss_rate_fraction",
    "effective_cache",
    "useful_fraction_bounds",
    "cache_for_target_miss_rate",
    "amdahl_flops",
    "amdahl_speedup",
    "miss_rates",
    "sequential_times",
    "execution_times",
    "execution_time_single",
    "cache_weights",
    "dominance_ratios",
    "is_dominant",
    "violating_applications",
    "optimal_cache_fractions",
    "lemma2_processor_allocation",
    "perfectly_parallel_makespan",
    "equal_finish_makespan",
    "equal_finish_allocation",
    "build_equal_finish_schedule",
    "dominant_partition",
    "dominant_rev_partition",
    "dominant_schedule",
    "DOMINANT_HEURISTICS",
    "all_proc_cache",
    "fair",
    "zero_cache",
    "random_partition",
    "register",
    "get_scheduler",
    "get_entry",
    "entries",
    "SchedulerEntry",
    "scheduler_names",
    "is_randomized",
    "PAPER_HEURISTICS",
    "PAPER_BASELINES",
    "BatchProblem",
    "BatchSchedule",
    "miss_rates_batch",
    "access_cost_factor_batch",
    "sequential_times_batch",
    "execution_times_batch",
    "cache_weights_batch",
    "dominance_ratios_batch",
    "optimal_cache_fractions_batch",
    "equal_finish_batch",
    "equal_finish_allocation_batch",
    "dominant_partition_batch",
    "dominant_rev_partition_batch",
    "dominant_schedule_batch",
    "schedule_batch",
]
