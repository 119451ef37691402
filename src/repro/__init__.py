"""repro — co-scheduling algorithms for cache-partitioned systems.

A complete, executable reproduction of *"Co-scheduling algorithms for
cache-partitioned systems"* (Aupy, Benoit, Pottier, Raghavan, Robert,
Shantharam; INRIA RR-8965 / IPDPS 2017): the analytical model (power
law of cache misses + Amdahl cost model), the dominant-partition theory
and heuristics, the NP-completeness reduction, the evaluation baselines,
a way-partitioned LRU cache simulator substrate, an experiment
harness regenerating every figure of the paper, and an online decision
service (:mod:`repro.service`) serving the schedulers over HTTP with
request batching and an LRU decision cache.

Quickstart::

    import numpy as np
    from repro import Platform, get_scheduler
    from repro.workloads import npb_synth
    from repro.machine import taihulight

    rng = np.random.default_rng(0)
    platform = taihulight()
    workload = npb_synth(64, rng)
    schedule = get_scheduler("dominant-minratio")(workload, platform, rng)
    print(schedule.makespan())
"""

from .core import (
    Application,
    BaseSchedule,
    Platform,
    Schedule,
    SequentialSchedule,
    Workload,
    dominant_schedule,
    get_scheduler,
    register,
    scheduler_names,
)
from .types import (
    InfeasibleScheduleError,
    ModelError,
    ReproError,
    SolverError,
)

__version__ = "1.1.0"

__all__ = [
    "Application",
    "Workload",
    "Platform",
    "Schedule",
    "SequentialSchedule",
    "BaseSchedule",
    "dominant_schedule",
    "get_scheduler",
    "register",
    "scheduler_names",
    "ReproError",
    "ModelError",
    "InfeasibleScheduleError",
    "SolverError",
    "__version__",
]
