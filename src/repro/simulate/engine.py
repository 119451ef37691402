"""Discrete-event co-execution simulator.

Executes a :class:`~repro.core.schedule.Schedule` instead of merely
pricing it: every application is a two-phase job (sequential phase at
one-processor speed, then parallel phase at ``p_i``-processor speed,
per Amdahl), progressing through simulated time until completion.  The
per-operation cost is the Eq. 2 access factor of its cache fraction.

The clock itself lives in :mod:`repro.simulate.kernel` — this module
is a thin adapter: it turns the schedule into the kernel's allocation
hook (a fixed allocation for the paper's static policy, a mutating one
for work-conserving redistribution) and repackages the kernel result.

With the default static policy the simulated finish times must equal
the analytical ``Exe_i(p_i, x_i)`` — the validation the test suite and
:mod:`repro.simulate.validation` perform.  The engine also supports a
*work-conserving* policy the paper leaves as future work: when an
application finishes, its processors are re-spread over the survivors
(proportionally to their current shares), which can only help and
quantifies how much slack a non-equal-finish schedule leaves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from ..core.batch import BatchSchedule
from ..core.execution import access_cost_factor, cost_factors
from ..core.schedule import Schedule
from ..types import ModelError
from .kernel import run_phase_kernel, run_phase_kernel_batch

__all__ = [
    "SimulationResult",
    "simulate_schedule",
    "BatchSimulationResult",
    "simulate_schedule_batch",
]


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of a co-execution simulation.

    Attributes
    ----------
    finish_times : numpy.ndarray
        Completion instant of each application.
    makespan : float
        ``max(finish_times)``.
    events : list[tuple[float, str, int]]
        Chronological ``(time, kind, app_index)`` log, where kind is
        ``"seq-done"`` or ``"done"``.
    peak_processors : float
        Maximum simultaneous processor usage observed, tracked from
        the actual in-use totals over time (see ``processor_usage``).
    policy : str
        ``"static"`` or ``"work-conserving"``.
    processor_usage : list[tuple[float, float]]
        ``(time, processors in use)`` samples, one per event; each
        total holds until the next sample.  Non-increasing under the
        static policy (usage drops as applications finish); constant
        at the schedule's total under work-conserving redistribution
        until the last application finishes.
    """

    finish_times: np.ndarray
    makespan: float
    events: list[tuple[float, str, int]] = field(repr=False)
    peak_processors: float
    policy: str
    processor_usage: list[tuple[float, float]] = field(
        default_factory=list, repr=False)


def simulate_schedule(
    schedule: Schedule,
    *,
    policy: Literal["static", "work-conserving"] = "static",
) -> SimulationResult:
    """Run *schedule* through the event kernel.

    Parameters
    ----------
    schedule : Schedule
        A feasible concurrent schedule.
    policy : {"static", "work-conserving"}
        ``"static"`` keeps the allocation fixed (the paper's model);
        ``"work-conserving"`` redistributes a finished application's
        processors over the running ones, proportionally to their
        shares.  Cache fractions are never reassigned (repartitioning
        at runtime would invalidate the static miss-rate model).

    Notes
    -----
    Rates: during its sequential phase an application retains its
    full processor allocation but progresses at one-processor speed
    ``1 / factor_i`` operations per time unit; during the parallel
    phase at ``p_i / factor_i``.  Phase work: ``s_i * w_i`` and
    ``(1 - s_i) * w_i`` operations.
    """
    if policy not in ("static", "work-conserving"):
        raise ModelError(f"unknown policy {policy!r}")
    wl = schedule.workload
    n = wl.n
    factor = access_cost_factor(wl, schedule.platform, schedule.cache)
    procs = schedule.procs.astype(np.float64).copy()

    def allocate(now, active, seq_left, par_left):
        # Static: the fixed schedule allocation.  Work-conserving: the
        # same array, mutated by `on_complete` as applications finish.
        return procs, factor

    on_complete = None
    if policy == "work-conserving":
        def on_complete(i, now, alive):
            freed = procs[i]
            procs[i] = 0.0
            share = procs[alive]
            total = float(share.sum())
            if total > 0:
                procs[alive] += freed * share / total

    result = run_phase_kernel(
        wl.work,
        wl.seq * wl.work,
        (1.0 - wl.seq) * wl.work,
        allocate=allocate,
        on_complete=on_complete,
        # Each event retires at least one phase; more means divergence.
        max_events=2 * n + 1,
        budget_message="simulation failed to converge (phase loop exhausted)",
    )

    return SimulationResult(
        finish_times=result.finish_times,
        makespan=float(result.finish_times.max()),
        events=result.log.as_tuples("seq-done", "done"),
        peak_processors=max(used for _, used in result.usage),
        policy=policy,
        processor_usage=result.usage,
    )


@dataclass(frozen=True)
class BatchSimulationResult:
    """Outcome of a batched static co-execution simulation.

    Attributes
    ----------
    finish_times : numpy.ndarray
        Completion instant per cell, shape ``(B, N)``, zeros in
        padding; row ``i``'s valid prefix is bit-identical to
        ``simulate_schedule(schedule_i).finish_times``.
    makespans : numpy.ndarray
        Per-row makespans, shape ``(B,)``.
    events : numpy.ndarray
        Per-row kernel iteration counts, shape ``(B,)``.
    """

    finish_times: np.ndarray
    makespans: np.ndarray
    events: np.ndarray


def simulate_schedule_batch(batch: BatchSchedule) -> BatchSimulationResult:
    """Run a whole :class:`~repro.core.batch.BatchSchedule` through the
    batched event kernel (static policy).

    One :func:`~repro.simulate.kernel.run_phase_kernel_batch` call
    advances every instance's two-phase clock in lockstep; per-row
    results are bit-identical to :func:`simulate_schedule` with the
    default static policy on the materialized per-row schedule.
    Work-conserving redistribution needs the scalar engine's
    ``on_complete`` hook and is deliberately not batched.
    """
    problem = batch.problem
    factors = cost_factors(problem, problem.platforms, batch.cache)
    result = run_phase_kernel_batch(
        problem.work,
        problem.seq * problem.work,
        (1.0 - problem.seq) * problem.work,
        procs=batch.procs,
        factors=factors,
        valid=problem.valid,
        # Each event retires at least one phase; more means divergence.
        max_events=2 * problem.counts + 1,
        budget_message="simulation failed to converge (phase loop exhausted)",
    )
    makespans = np.where(
        problem.valid, result.finish_times, -np.inf).max(axis=1)
    return BatchSimulationResult(
        finish_times=result.finish_times,
        makespans=makespans,
        events=result.events,
    )
