"""Online co-scheduling with dynamic arrivals.

The paper's setting is static (all applications present at time 0);
the in-situ reality it motivates is dynamic — analysis jobs arrive
over time.  This engine simulates that: at every *event* (an arrival
or a completion) the policy repartitions the cache and the processors
among the applications currently in the system, and execution proceeds
under the Eq. 2 model until the next event.

The clock is the shared event kernel (:mod:`repro.simulate.kernel`);
this module contributes only the reallocation policies.  In
particular, arrival admission uses the kernel's canonical combined
abs+rel tolerance.  Arrival streams beyond hand-passed arrays (constant
rate, inhomogeneous Poisson, trace replay) live in
:mod:`repro.online.arrivals`.

Policies
--------
``"dominant"``
    Recompute a dominant partition over the *active* applications
    using their remaining work in the weights, Theorem-3 fractions,
    and the remaining-work equal-finish processor split — the paper's
    machinery applied online.  The eviction loop is the exact
    Algorithm-1 core shared with the offline heuristics
    (:func:`repro.core.heuristics.evict_until_dominant`).
``"fair"``
    Equal processors, access-frequency-proportional cache among the
    active applications (``1/n`` each when no one accesses memory).
``"fcfs"``
    One application at a time (arrival order), whole machine + whole
    cache — the no-co-scheduling baseline.
any registered scheduler name
    Every concurrent strategy in the scheduler registry (e.g.
    ``"dominant-maxratio"``, ``"fair"``'s registered cousin,
    ``"speedup-aware"``) can drive the online loop: at each event the
    entry is invoked on the *active* applications with their remaining
    work, and the resulting ``(procs, cache)`` allocation is applied
    until the next event.  Sequential strategies (``"allproccache"``)
    are rejected — use ``"fcfs"`` for that behavior.

Cache repartitioning takes effect instantaneously (the model carries
no warm-up; Section 3's miss rates are steady-state).  Metrics:
completion and flow times per application, makespan, mean/max flow.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.application import Workload
from ..core.dominance import DominanceModel
from ..core.execution import access_cost_model
from ..core.heuristics import evict_until_dominant
from ..core.platform import Platform
from ..core.registry import get_entry, scheduler_names
from ..simulate.kernel import EventLog, run_phase_kernel
from ..types import ModelError
from .allocation import remaining_equal_finish

__all__ = [
    "OnlineResult",
    "simulate_online",
    "BUILTIN_POLICIES",
    "arrival_order",
    "check_arrivals",
    "make_policy_allocator",
]

#: The hand-rolled event-loop policies; any other name is resolved
#: through the scheduler registry.
BUILTIN_POLICIES: tuple[str, ...] = ("dominant", "fair", "fcfs")

#: A policy is a builtin name or any registered concurrent scheduler.
Policy = str


@dataclass(frozen=True)
class OnlineResult:
    """Outcome of an online simulation.

    Attributes
    ----------
    arrival_times, finish_times : numpy.ndarray
        Per-application instants.
    events : int
        Number of reallocation events processed.
    policy : str
        The policy simulated.
    processor_usage : list[tuple[float, float]]
        ``(time, processors in use)`` sampled at every reallocation —
        the same public timeline :class:`repro.simulate.SimulationResult`
        exposes, so chaos probes and invariant checks can audit the
        online path too.  Each total holds until the next sample.
    log : EventLog
        The kernel's typed event log for the run (arrivals,
        phase exits, completions — plus fault events when the run is
        driven through :mod:`repro.chaos`).
    """

    arrival_times: np.ndarray
    finish_times: np.ndarray
    events: int
    policy: str
    processor_usage: list[tuple[float, float]] = field(
        default_factory=list, repr=False)
    log: EventLog = field(default_factory=EventLog, repr=False)

    @property
    def peak_processors(self) -> float:
        """Largest simultaneous in-use total over the run."""
        if not self.processor_usage:
            return 0.0
        return max(used for _, used in self.processor_usage)

    @property
    def flow_times(self) -> np.ndarray:
        """Per-application response times (finish - arrival)."""
        return self.finish_times - self.arrival_times

    @property
    def makespan(self) -> float:
        """Completion of the last application."""
        return float(self.finish_times.max())

    @property
    def mean_flow(self) -> float:
        return float(self.flow_times.mean())

    @property
    def max_flow(self) -> float:
        return float(self.flow_times.max())


def _dominant_fractions(
    model: DominanceModel, active: np.ndarray, work_left: np.ndarray,
) -> np.ndarray:
    """Theorem-3 fractions over a dominance-filtered active subset.

    Weights use the *remaining* work *work_left* (an application nearly
    done should not hold a large partition); the dominance ratios
    follow Definition 4 with those weights, and the eviction is the
    shared Algorithm-1 core with the MinRatio choice.  *model* is the
    workload's :class:`~repro.core.dominance.DominanceModel`.
    """
    weights = model.weights(work_left)
    mask = evict_until_dominant(weights, model.ratios(weights),
                                active & (weights > 0), "minratio")
    x = np.zeros(work_left.size)
    if mask.any():
        total = float(weights[mask].sum())
        x[mask] = weights[mask] / total
    return x


def check_arrivals(workload: Workload, arrival_times) -> np.ndarray:
    """*arrival_times* as a float64 array: one instant >= 0 per application."""
    arrivals = np.asarray(arrival_times, dtype=np.float64)
    if arrivals.shape != (workload.n,):
        raise ModelError(f"arrival_times must have shape ({workload.n},)")
    if np.any(arrivals < 0):
        raise ModelError("arrival times must be >= 0")
    return arrivals


def arrival_order(arrival_times) -> np.ndarray:
    """Stable arrival ranks (ties broken by index) for fcfs policies."""
    arrivals = np.asarray(arrival_times, dtype=np.float64)
    return np.argsort(np.argsort(arrivals, kind="stable")).astype(np.float64)


def make_policy_allocator(
    workload: Workload,
    platform: Platform,
    policy: Policy,
    *,
    fcfs_order: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
):
    """Build the kernel ``allocate`` hook for a reallocation policy.

    Returns a closure ``allocate(now, active, seq_left, par_left) ->
    (procs, factors)`` mapping the policy's ``(procs, cache)`` decision
    over the active set into the event kernel's convention (Eq. 2
    access-cost factors).  This is the single policy seam shared by
    :func:`simulate_online` and the fault injector
    (:class:`repro.chaos.FaultInjector`), which wraps the returned
    hook rather than re-deriving the policies.

    The hook is compiled once per run: the workload's constants (the
    Eq. 2 cost model of :func:`repro.core.execution.access_cost_model`
    and the :class:`~repro.core.dominance.DominanceModel` of
    ``"dominant"``) are bound here, and each event evaluates only what
    depends on the active set and the remaining work.  ``"fair"`` and
    ``"fcfs"`` decide from the active set alone and are memoized on
    it.  A registry policy sees a snapshot workload whose
    applications carry their *remaining* work and the sequential
    fraction of that remainder, so an offline strategy re-solves the
    shrinking instance at each event; randomized entries draw from
    *rng* at every event.

    *fcfs_order* carries the stable arrival ranks the ``"fcfs"``
    builtin serializes by (see :func:`arrival_order`); it defaults to
    index order.  An unknown *policy* raises
    :class:`~repro.types.ModelError` here, before any event.
    """
    if fcfs_order is None:
        fcfs_order = np.arange(workload.n, dtype=np.float64)
    n = workload.n
    p = platform.p
    freq = workload.freq
    # Eq. 2's factors of a cache split, constants bound once per run.
    factors_of = access_cost_model(workload, platform)

    if policy == "fcfs":
        def decide(active, seq_left, par_left):
            idx = active.nonzero()[0]
            procs = np.zeros(n)
            cache = np.zeros(n)
            head = idx[np.argmin(fcfs_order[idx])]
            procs[head] = p
            cache[head] = 1.0
            return procs, factors_of(cache)
    elif policy == "fair":
        def decide(active, seq_left, par_left):
            idx = active.nonzero()[0]
            procs = np.zeros(n)
            cache = np.zeros(n)
            procs[idx] = p / idx.size
            total_freq = float(freq[idx].sum())
            if total_freq > 0:
                cache[idx] = freq[idx] / total_freq
            else:
                cache[idx] = 1.0 / idx.size
            return procs, factors_of(cache)
    elif policy == "dominant":
        model = DominanceModel(workload, platform)

        def decide(active, seq_left, par_left):
            factors = factors_of(
                _dominant_fractions(model, active, seq_left + par_left))
            idx = active.nonzero()[0]
            alloc, _ = remaining_equal_finish(
                seq_left[idx], par_left[idx], factors[idx], p)
            procs = np.zeros(n)
            procs[idx] = alloc
            return procs, factors
    else:
        try:
            entry = get_entry(policy)
        except ModelError:
            raise ModelError(
                f"unknown policy {policy!r}; builtin policies: "
                f"{', '.join(BUILTIN_POLICIES)}, plus any registered "
                f"concurrent scheduler ({', '.join(scheduler_names())})"
            ) from None
        names = workload.names
        seq_ops = workload.seq * workload.work
        par_ops = (1.0 - workload.seq) * workload.work

        def decide(active, seq_left, par_left):
            idx = active.nonzero()[0]
            seq_left_i, par_left_i = seq_left[idx], par_left[idx]
            work, seq = workload.work[idx], workload.seq[idx]
            # An application with no progress yet keeps its own work
            # and fraction: rebuilding them from seq_left + par_left can
            # move them by an ulp, which a local optimizer such as
            # continuous-opt's SLSQP amplifies into a different schedule.
            moved = (seq_left_i != seq_ops[idx]) | (par_left_i != par_ops[idx])
            if moved.any():
                work[moved] = seq_left_i[moved] + par_left_i[moved]
                with np.errstate(divide="ignore", invalid="ignore"):
                    seq[moved] = seq_left_i[moved] / work[moved]
            snapshot = Workload.from_columns(
                [names[i] for i in idx.tolist()], work, seq, freq[idx],
                workload.miss0[idx], workload.footprint[idx],
                workload.baseline_cache[idx])
            schedule = entry(snapshot, platform, rng)
            if not schedule.concurrent:
                raise ModelError(
                    f"policy {policy!r} builds a sequential schedule; the online "
                    "engine needs a concurrent strategy (use 'fcfs' instead)"
                )
            procs = np.zeros(n)
            cache = np.zeros(n)
            procs[idx] = schedule.procs
            cache[idx] = schedule.cache
            return procs, factors_of(cache)

    # fair and fcfs decide from the active set alone: memoize them on it.
    memo = {} if policy in ("fair", "fcfs") else None
    idle = (np.zeros(n), factors_of(np.zeros(n)))

    def allocate(now, active, seq_left, par_left):
        if not active.any():
            decision = idle
        elif memo is None:
            return decide(active, seq_left, par_left)
        else:
            key = active.tobytes()
            decision = memo.get(key)
            if decision is None:
                decision = memo[key] = decide(active, seq_left, par_left)
        # Kept arrays go out as copies: a caller mutating what it got
        # cannot reach a later answer.
        return decision[0].copy(), decision[1].copy()

    return allocate


def simulate_online(
    workload: Workload,
    platform: Platform,
    arrival_times,
    *,
    policy: Policy = "dominant",
    max_events: int | None = None,
    rng: np.random.Generator | None = None,
) -> OnlineResult:
    """Simulate dynamic arrivals under a reallocation policy.

    *policy* is a builtin (``"dominant"``, ``"fair"``, ``"fcfs"``) or
    any registered concurrent scheduler name; *rng* feeds randomized
    registry policies (builtins ignore it).
    """
    arrivals = check_arrivals(workload, arrival_times)
    allocate = make_policy_allocator(
        workload, platform, policy,
        fcfs_order=arrival_order(arrivals), rng=rng,
    )

    result = run_phase_kernel(
        workload.work,
        workload.seq * workload.work,
        (1.0 - workload.seq) * workload.work,
        allocate=allocate,
        arrivals=arrivals,
        max_events=max_events,
        budget_message="online simulation exceeded its event budget",
    )

    return OnlineResult(
        arrival_times=arrivals.copy(),
        finish_times=result.finish_times,
        events=result.events,
        policy=policy,
        processor_usage=result.usage,
        log=result.log,
    )
