"""Hardware-granularity study: discrete ways vs continuous fractions.

Intel CAT partitions by *ways* (typically 11-20 of them), while the
paper's model allocates arbitrary real fractions.  This module bridges
the two with UCP: build each application's Eq. 2 cost-vs-ways curve
from the model, allocate whole ways with the UCP lookahead algorithm
(:func:`repro.cachesim.ucp.ucp_allocate`), and rebuild the schedule —
giving both

* a *deployable* scheduler (``ways_schedule``) whose cache allocation
  a real CAT mask can express, and
* the granularity penalty vs the continuous Theorem-3 optimum
  (``granularity_penalty``), checked by the ``ucp-way-granularity-cost``
  row of ``tests/test_paper_claims.py``.

For perfectly parallel applications, minimizing the makespan is
minimizing ``sum_i Exe_i(1, x_i)`` (Lemma 3), so the per-application
utility curve is simply its sequential time at each way count — UCP's
additive objective is exactly the right one here.
"""

from __future__ import annotations

import numpy as np

from ..cachesim.ucp import ucp_allocate
from ..core.application import Workload
from ..core.execution import sequential_times
from ..core.platform import Platform
from ..core.processor_allocation import build_equal_finish_schedule
from ..core.schedule import Schedule
from ..types import ModelError

__all__ = ["model_utility_curves", "ways_schedule", "granularity_penalty"]


def model_utility_curves(
    workload: Workload, platform: Platform, total_ways: int
) -> list[np.ndarray]:
    """Per-application sequential time for every way count 0..W.

    Curve ``i`` has ``W+1`` entries: ``Exeseq_i(w / W)`` — the Eq. 2
    cost of holding ``w`` of the ``W`` ways.
    """
    if total_ways < 1:
        raise ModelError(f"total_ways must be >= 1, got {total_ways}")
    fractions = np.arange(total_ways + 1, dtype=np.float64) / total_ways
    curves = []
    for i in range(workload.n):
        single = workload.subset(np.array([i]))
        costs = np.array([
            sequential_times(single, platform, np.array([x]))[0] for x in fractions
        ])
        # guard against flat tails drifting upward by fp noise
        curves.append(np.minimum.accumulate(costs))
    return curves


def ways_schedule(
    workload: Workload,
    platform: Platform,
    total_ways: int = 20,
    *,
    min_ways: int = 0,
) -> tuple[Schedule, np.ndarray]:
    """UCP-over-the-model schedule with whole-way cache allocation.

    Returns ``(schedule, ways)``; the schedule's fractions are
    ``ways / total_ways`` and the processors equal-finish.
    """
    curves = model_utility_curves(workload, platform, total_ways)
    ways = ucp_allocate(curves, total_ways, min_ways=min_ways)
    x = ways.astype(np.float64) / total_ways
    return build_equal_finish_schedule(workload, platform, x), ways


def granularity_penalty(
    workload: Workload,
    platform: Platform,
    total_ways: int = 20,
) -> float:
    """Relative makespan cost of way-granular allocation.

    ``ways_makespan / continuous_makespan - 1`` where the continuous
    reference is the dominant-partition heuristic.  Nonnegative up to
    the heuristic's own suboptimality (UCP can occasionally *beat* the
    greedy subset choice under pressure, so small negative values are
    possible and reported as such).
    """
    from ..core.heuristics import dominant_schedule

    discrete, _ = ways_schedule(workload, platform, total_ways)
    continuous = dominant_schedule(workload, platform,
                                   strategy="dominant", choice="minratio")
    return discrete.makespan() / continuous.makespan() - 1.0
