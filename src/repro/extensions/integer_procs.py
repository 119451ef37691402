"""Integer processor allocation (deployment-grade rounding).

The paper deliberately uses rational processor counts (shareable via
multi-threading) to expose the problem's intrinsic structure.  Real
resource managers often need integers; this module quantifies the cost
of that restriction:

* :func:`round_processors` — round a fractional allocation to integers
  under ``sum p_i <= p`` with one of three strategies;
* :func:`integer_schedule` — apply the rounding to any scheduler's
  output and rebuild the schedule;
* :func:`rounding_penalty` — the relative makespan degradation, the
  quantity the ``integer-rounding-cost`` row of
  ``tests/test_paper_claims.py`` checks.

Rounding floors every allocation (never exceeding the budget), then
redistributes the leftover whole processors greedily:

* ``"largest-remainder"`` — by fractional remainder (classic);
* ``"critical-path"`` — to whichever application currently finishes
  last (repeatedly), directly targeting the makespan;
* ``"floor"`` — keep the floors (baseline for comparison).
"""

from __future__ import annotations

import numpy as np

from ..core.application import Workload
from ..core.execution import execution_times
from ..core.platform import Platform
from ..core.schedule import Schedule
from ..types import ModelError

__all__ = ["round_processors", "integer_schedule", "rounding_penalty"]


def round_processors(
    procs,
    workload: Workload,
    platform: Platform,
    cache,
    *,
    strategy: str = "critical-path",
) -> np.ndarray:
    """Integer allocation from fractional *procs* (each app gets >= 1).

    Requires ``n <= p`` (otherwise an integer schedule in one wave is
    impossible and co-scheduling must batch — out of scope here).
    """
    procs = np.asarray(procs, dtype=np.float64)
    n = workload.n
    p_total = int(np.floor(platform.p))
    if n > p_total:
        raise ModelError(
            f"cannot give {n} applications >= 1 integer processor each "
            f"out of {p_total}"
        )
    base = np.maximum(np.floor(procs).astype(np.int64), 1)
    while int(base.sum()) > p_total:  # floors + the >=1 lift may overshoot
        i = int(np.argmax(base))
        base[i] -= 1
    leftover = p_total - int(base.sum())

    if strategy == "floor":
        return base.astype(np.float64)
    if strategy == "largest-remainder":
        remainders = procs - np.floor(procs)
        for idx in np.argsort(-remainders)[:leftover]:
            base[idx] += 1
        return base.astype(np.float64)
    if strategy == "critical-path":
        cache = np.asarray(cache, dtype=np.float64)
        alloc = base.astype(np.float64)
        for _ in range(leftover):
            times = execution_times(workload, platform, alloc, cache)
            alloc[int(np.argmax(times))] += 1
        return alloc
    raise ModelError(f"unknown rounding strategy {strategy!r}")


def integer_schedule(schedule: Schedule, *, strategy: str = "critical-path") -> Schedule:
    """Rebuild *schedule* with integer processor counts."""
    procs = round_processors(
        schedule.procs,
        schedule.workload,
        schedule.platform,
        schedule.cache,
        strategy=strategy,
    )
    return Schedule(schedule.workload, schedule.platform, procs, schedule.cache)


def rounding_penalty(schedule: Schedule, *, strategy: str = "critical-path") -> float:
    """Relative makespan increase from integer rounding (>= ~0)."""
    rounded = integer_schedule(schedule, strategy=strategy)
    return rounded.makespan() / schedule.makespan() - 1.0
