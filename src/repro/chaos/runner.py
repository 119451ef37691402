"""One-call chaos runs: policy + fault spec -> audited result.

:func:`run_chaos` is the subsystem's front door.  It compiles the
fault spec against a pessimistic horizon estimate, builds the policy's
kernel allocator through the same seam :func:`repro.online.simulate_online`
uses (:func:`repro.online.make_policy_allocator` — every builtin and
every registered concurrent scheduler works unchanged), wires the
:class:`~repro.chaos.injector.FaultInjector` and a cadence
:class:`~repro.chaos.probes.ProbeTimeline` into the kernel, and
returns a :class:`ChaosResult` bundling the classic online metrics
with the fault counters, the probe timeline, and the pool history.

Determinism contract: ``run_chaos(..., fault_rng=default_rng(seed))``
is a pure function of its arguments — the fault stream is compiled
ahead of the run from *fault_rng* alone, so every policy evaluated
with the same seed faces the identical stream, and two runs with the
same seed produce byte-identical event logs and probe timelines,
whether they share a process or not.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.application import Workload
from ..core.execution import exe_times
from ..core.platform import Platform
from ..online.engine import (
    OnlineResult, arrival_order, check_arrivals, make_policy_allocator)
from ..simulate.kernel import EventLog, run_phase_kernel
from .faults import CompiledFaults, FaultSpec, parse_fault_spec
from .injector import FaultInjector
from .probes import ProbeTimeline

__all__ = ["ChaosResult", "run_chaos", "estimate_horizon"]


def estimate_horizon(workload: Workload, platform: Platform,
                     arrivals: np.ndarray) -> float:
    """Pessimistic completion bound used as the fault-drawing horizon.

    Serialize everything — the fcfs worst case: each application runs
    alone on the whole machine with the whole cache (so its Eq. 2
    factor is its best one), its sequential phase on one processor —
    and double it to absorb crash-destroyed work and outage time.
    Faults are only drawn up to the horizon; a run outliving it
    (possible in principle, with enough lost work) simply sees a calm
    platform afterwards.  Tighter is better here: the horizon sets how
    many hazard-driven events are compiled, and with it the kernel's
    event budget.
    """
    alone = exe_times(workload, platform, platform.p, np.ones(workload.n))
    return float(arrivals.max() + 2.0 * alone.sum())


@dataclass(frozen=True, kw_only=True)
class ChaosResult(OnlineResult):
    """Outcome of a fault-injected online run.

    The :class:`repro.online.OnlineResult` of the run (arrival/finish
    times, flow times, makespan, processor usage, event log) plus the
    chaos view: the compiled fault stream, the stepwise pool history,
    the probe timeline, and the fault counters.
    """

    faults: CompiledFaults
    probe: ProbeTimeline = field(repr=False)
    pool_timeline: list[tuple[float, float]] = field(repr=False)
    crashes: int = 0
    preemptions: int = 0
    dropped_faults: int = 0
    lost_work: float = 0.0
    total_work: float = 0.0

    @property
    def goodput(self) -> float:
        """Useful operations retired per unit time over the whole run.

        ``total_work / makespan`` — crash-destroyed (re-queued and
        redone) operations are not useful work, so they depress this
        through the longer makespan, which is exactly the resilience
        signal the benchmark's *goodput retained* curve plots.
        """
        return self.total_work / self.makespan

    def metrics(self) -> dict[str, float]:
        """Scalar metric row (experiment-grid friendly)."""
        return {
            "makespan": self.makespan,
            "mean_flow": self.mean_flow,
            "max_flow": self.max_flow,
            "peak_processors": self.peak_processors,
            "goodput": self.goodput,
            "crashes": float(self.crashes),
            "preemptions": float(self.preemptions),
            "lost_work": self.lost_work,
        }


def run_chaos(
    workload: Workload,
    platform: Platform,
    arrival_times=None,
    *,
    faults: FaultSpec | CompiledFaults | str = "none",
    policy: str = "dominant",
    rng: np.random.Generator | None = None,
    fault_rng: np.random.Generator | None = None,
    probe_interval: float | None = None,
    horizon: float | None = None,
    max_samples: int = 2048,
) -> ChaosResult:
    """Run one policy under one fault stream, with cadence probes.

    The kernel's event budget covers the base online budget plus every
    fault event, restart, and probe tick.

    Parameters
    ----------
    arrival_times : array-like, optional
        Per-application arrival instants (zeros: everyone present at
        the start, the offline convention with faults on top).
    faults : FaultSpec, CompiledFaults, or spec string
        The disturbance.  A string goes through
        :func:`repro.chaos.parse_fault_spec` (``"none"`` for a clean
        run); a :class:`FaultSpec` is compiled here against *fault_rng*
        and the horizon; a pre-compiled stream is injected as-is (how
        experiment cells share one stream across policies).
    policy : str
        Builtin online policy or registered concurrent scheduler.
    rng : numpy.random.Generator, optional
        Feeds randomized registry policies (builtins ignore it).
    fault_rng : numpy.random.Generator, optional
        Sole entropy source for fault compilation; defaults to
        ``default_rng(0)``.  Ignored for pre-compiled streams.
    probe_interval : float, optional
        Cadence of the metric probes; defaults to ``horizon / 128``.
        Every tick is a reallocation point, so it moves the results
        of policies that re-solve from the remaining work (see
        :mod:`repro.chaos.probes`).
    horizon : float, optional
        Fault-drawing horizon; defaults to :func:`estimate_horizon`.
    max_samples : int
        Probe budget (see :class:`~repro.chaos.probes.ProbeTimeline`).
    """
    if arrival_times is None:
        arrivals = np.zeros(workload.n)
    else:
        arrivals = check_arrivals(workload, arrival_times)

    if horizon is None:
        horizon = estimate_horizon(workload, platform, arrivals)
    if isinstance(faults, str):
        faults = parse_fault_spec(faults)
    if isinstance(faults, FaultSpec):
        if fault_rng is None:
            fault_rng = np.random.default_rng(0)
        compiled = faults.compile(workload.n, platform.p, horizon, fault_rng)
    else:
        compiled = faults

    if probe_interval is None:
        probe_interval = horizon / 128.0
    probe = ProbeTimeline(probe_interval, max_samples=max_samples)

    log = EventLog()
    allocate = make_policy_allocator(
        workload, platform, policy,
        fcfs_order=arrival_order(arrivals), rng=rng,
    )
    injector = FaultInjector(
        workload, platform, compiled,
        allocate=allocate, log=log, arrivals=arrivals, probe=probe,
    )

    max_events = (20 * workload.n + 10
                  + 8 * len(compiled.events)
                  + 2 * probe.max_samples + 64)

    result = run_phase_kernel(
        workload.work,
        workload.seq * workload.work,
        (1.0 - workload.seq) * workload.work,
        allocate=injector.allocate,
        arrivals=arrivals if arrival_times is not None else None,
        timeline=injector.timeline,
        max_events=max_events,
        budget_message=(
            f"chaos run ({policy!r}) exceeded its event budget of "
            f"{max_events}; loosen the fault spec"),
        log=log,
    )
    injector.finalize(result.now)

    return ChaosResult(
        policy=policy,
        faults=compiled,
        arrival_times=arrivals.copy(),
        finish_times=result.finish_times,
        events=result.events,
        log=log,
        processor_usage=result.usage,
        probe=probe,
        pool_timeline=injector.pool_timeline,
        crashes=injector.crashes,
        preemptions=injector.preemptions,
        dropped_faults=injector.dropped_faults,
        lost_work=injector.lost_work,
        total_work=float(workload.work.sum()),
    )
