"""The scalar Section 6.3 baselines, frozen as a test oracle.

Until the four baselines were folded into the batch core,
``repro.core.baselines`` computed each one per instance: AllProcCache
as a ``SequentialSchedule``, Fair in closed form over NumPy's pairwise
``freq.sum()``, 0cache and RandomPart through the scalar dominance
helpers and ``build_equal_finish_schedule``.  The live entry points
are now batches of one through the ``*_batch`` functions; this module
keeps the scalar code verbatim so the golden suite can assert that
every baseline still produces the same bits as the code the paper's
figures were first computed with.

Do not "fix" anything here — the point is to freeze the historical
arithmetic (including its quirks) so any drift in the batch core is
caught exactly.
"""

from __future__ import annotations

import numpy as np

from repro.core.application import Workload
from repro.core.dominance import cache_weights, optimal_cache_fractions
from repro.core.platform import Platform
from repro.core.processor_allocation import build_equal_finish_schedule
from repro.core.schedule import BaseSchedule, Schedule, SequentialSchedule

__all__ = ["all_proc_cache", "fair", "zero_cache", "random_partition",
           "legacy_baseline"]


def all_proc_cache(workload: Workload, platform: Platform) -> SequentialSchedule:
    """Sequential execution, whole machine per application (AllProcCache)."""
    return SequentialSchedule(workload, platform)


def fair(workload: Workload, platform: Platform) -> Schedule:
    """Equal processors, frequency-proportional cache shares (Fair).

    When every application has ``f == 0`` the cache is split equally —
    the shares are irrelevant in that case since nobody accesses data.
    """
    n = workload.n
    procs = np.full(n, platform.p / n)
    total_freq = float(workload.freq.sum())
    if total_freq > 0:
        cache = workload.freq / total_freq
    else:
        cache = np.full(n, 1.0 / n)
    return Schedule(workload, platform, procs, cache)


def zero_cache(workload: Workload, platform: Platform) -> Schedule:
    """No cache for anyone; equal-finish processor allocation (0cache)."""
    x = np.zeros(workload.n)
    return build_equal_finish_schedule(workload, platform, x)


def random_partition(
    workload: Workload,
    platform: Platform,
    rng: np.random.Generator | None = None,
) -> Schedule:
    """Random cache subset with Theorem-3 fractions inside (RandomPart).

    Each application joins the cache subset independently with
    probability 1/2, restricted to applications that can profit from
    cache (positive weight).  If the draw selects nobody, the schedule
    degenerates to 0cache — exactly the paper's "for those in cache"
    formulation.
    """
    rng = rng if rng is not None else np.random.default_rng()
    weights = cache_weights(workload, platform)
    eligible = weights > 0
    mask = eligible & (rng.random(workload.n) < 0.5)
    if mask.any():
        x = optimal_cache_fractions(workload, platform, mask)
    else:
        x = np.zeros(workload.n)
    return build_equal_finish_schedule(workload, platform, x)


def legacy_baseline(name: str, workload: Workload, platform: Platform,
                    rng: np.random.Generator | None = None) -> BaseSchedule:
    """The registered baseline *name*, computed by the scalar bodies."""
    if name == "randompart":
        return random_partition(workload, platform, rng)
    return {"allproccache": all_proc_cache, "fair": fair,
            "0cache": zero_cache}[name](workload, platform)
