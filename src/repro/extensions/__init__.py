"""Extensions beyond the paper (its Section 7 future-work directions).

Three of them are registered schedulers, declared in
:mod:`repro.core.registry` and imported from here on their first call:

* ``speedup-aware`` — dominant subset + Amdahl-aware KKT cache fractions;
* ``localsearch``   — dominant subset refined by add/drop/swap search;
* ``continuous-opt`` — SLSQP over the fractions (reference upper bound).
"""

from .continuous import continuous_schedule, optimize_fractions
from .granularity import granularity_penalty, model_utility_curves, ways_schedule
from .integer_procs import integer_schedule, round_processors, rounding_penalty
from .local_search import LocalSearchResult, local_search_partition, local_search_schedule
from .speedup_aware import speedup_aware_fractions, speedup_aware_schedule

__all__ = [
    "speedup_aware_fractions",
    "speedup_aware_schedule",
    "LocalSearchResult",
    "local_search_partition",
    "local_search_schedule",
    "optimize_fractions",
    "continuous_schedule",
    "round_processors",
    "integer_schedule",
    "rounding_penalty",
    "model_utility_curves",
    "ways_schedule",
    "granularity_penalty",
]
