"""Deterministic fault injection & elastic platforms (ROADMAP item 5).

The paper's platform never changes and its applications never fail;
this subsystem opens that axis on top of the shared event kernel:

* :mod:`repro.chaos.faults` — declarative, seedable fault sources
  (processor churn, crash/restart, preemption, priority classes) and
  the ``--faults`` spec grammar;
* :mod:`repro.chaos.injector` — :class:`FaultInjector`, threading a
  compiled stream through the kernel's allocate/timeline seams;
* :mod:`repro.chaos.probes` — fixed-cadence metric scraping into a
  typed timeline next to the event log;
* :mod:`repro.chaos.invariants` — the behavioral contract (work
  conservation, pool ceiling, no-starvation floor, completion);
* :mod:`repro.chaos.runner` — :func:`run_chaos`, the one-call front
  door every policy, the CLI, the experiment grids, and the resilience
  benchmark share.
"""

from .faults import (
    FAULT_KINDS,
    CompiledFaults,
    CrashRestart,
    FaultEvent,
    FaultSpec,
    Preemption,
    PriorityClasses,
    ProcessorChurn,
    parse_fault_spec,
)
from .injector import FaultInjector, pool_at
from .invariants import InvariantReport, check_invariants
from .probes import PROBE_COLUMNS, ProbeSample, ProbeTimeline
from .runner import ChaosResult, estimate_horizon, run_chaos

__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "CompiledFaults",
    "FaultSpec",
    "ProcessorChurn",
    "CrashRestart",
    "Preemption",
    "PriorityClasses",
    "parse_fault_spec",
    "FaultInjector",
    "pool_at",
    "InvariantReport",
    "check_invariants",
    "ProbeSample",
    "ProbeTimeline",
    "PROBE_COLUMNS",
    "ChaosResult",
    "estimate_horizon",
    "run_chaos",
]
