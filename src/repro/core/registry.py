"""Scheduler registry: string name -> metadata-rich scheduler entry.

Experiments, benchmarks, and the CLI refer to strategies by the names
the paper uses in its figure legends.  Every registered scheduler has
the uniform signature::

    scheduler(workload, platform, rng=None) -> BaseSchedule

Each registry slot holds a :class:`SchedulerEntry` — the callable plus
the metadata the orchestration layers need: whether the strategy is
``randomized`` (its result depends on ``rng``), a one-line
``description``, and ``provenance`` (which part of the paper — or
which extension package — it comes from).  Entries are callable, so
``get_scheduler(name)(workload, platform, rng)`` keeps working
unchanged.

Deterministic strategies ignore ``rng``.  Use :func:`register` to add
custom strategies.  The :mod:`repro.extensions` strategies are declared
here too; each imports its module on its first call, so importing the
registry loads only the core.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from ..types import ModelError
from . import baselines
from .application import Workload
from .batch import BatchProblem
from .heuristics import DOMINANT_HEURISTICS, dominant_schedule, dominant_schedule_batch
from .platform import Platform
from .schedule import BaseSchedule

__all__ = [
    "SchedulerFn",
    "BatchSchedulerFn",
    "SchedulerEntry",
    "register",
    "get_scheduler",
    "get_entry",
    "entries",
    "scheduler_names",
    "is_randomized",
    "schedule_batch",
    "PAPER_HEURISTICS",
    "PAPER_BASELINES",
]

SchedulerFn = Callable[[Workload, Platform, Optional[np.random.Generator]], BaseSchedule]

#: batch_fn(instances, rngs) -> one schedule per (workload, platform) pair.
BatchSchedulerFn = Callable[
    [list, list], list
]


@dataclass(frozen=True)
class SchedulerEntry:
    """One registry slot: the scheduler callable plus its metadata.

    Attributes
    ----------
    name : str
        Canonical (lowercase) registry key.
    fn : SchedulerFn
        Callable building a schedule.
    randomized : bool
        Whether the result depends on ``rng`` — the experiment runner
        averages these over repetitions and must feed each invocation
        an independent stream.
    description : str
        One-line human-readable summary (shown by ``repro list``).
    provenance : str
        Where the strategy comes from (paper section, extension
        package, user registration).
    batch_fn : BatchSchedulerFn, optional
        Vectorized batch evaluator: ``batch_fn(instances, rngs)`` takes
        a list of (workload, platform) pairs plus a same-length list of
        per-instance generators (None for deterministic strategies) and
        returns one schedule per instance, each bit-identical to
        ``fn(workload, platform, rng)``.  Only :func:`schedule_batch`
        calls it; strategies without one are evaluated per instance
        there.
    """

    name: str
    fn: SchedulerFn
    randomized: bool = False
    description: str = ""
    provenance: str = ""
    batch_fn: Optional[BatchSchedulerFn] = None

    def __call__(
        self,
        workload: Workload,
        platform: Platform,
        rng: Optional[np.random.Generator] = None,
    ) -> BaseSchedule:
        return self.fn(workload, platform, rng)


_REGISTRY: dict[str, SchedulerEntry] = {}

#: The six dominant-partition heuristics of Section 5 (figure legend order).
PAPER_HEURISTICS: tuple[str, ...] = tuple(DOMINANT_HEURISTICS)

#: The comparison baselines of Section 6.3.
PAPER_BASELINES: tuple[str, ...] = ("allproccache", "fair", "0cache", "randompart")


def register(name: str, fn: SchedulerFn, *, randomized: bool | None = None,
             description: str | None = None, provenance: str | None = None,
             batch_fn: BatchSchedulerFn | None = None,
             overwrite: bool = False) -> SchedulerEntry:
    """Register *fn* under *name* (lowercase canonical).

    Parameters
    ----------
    name : str
        Registry key; looked up case-insensitively.
    fn : SchedulerFn
        Callable building a schedule.  Passing an existing
        :class:`SchedulerEntry` re-registers it, keeping its metadata
        unless overridden here.
    randomized : bool, optional
        Mark strategies whose result depends on ``rng`` — the
        experiment runner averages these over repetitions.
    description, provenance : str, optional
        Metadata recorded on the entry.
    batch_fn : BatchSchedulerFn, optional
        Vectorized batch evaluator (see :class:`SchedulerEntry`).
    overwrite : bool
        Allow replacing an existing entry.

    Returns
    -------
    SchedulerEntry
        The entry now stored in the registry.
    """
    key = name.lower()
    if key in _REGISTRY and not overwrite:
        raise ModelError(f"scheduler {name!r} is already registered")
    if isinstance(fn, SchedulerEntry):
        entry = fn
        updates = {}
        if entry.name != key:
            updates["name"] = key
        if randomized is not None and randomized != entry.randomized:
            updates["randomized"] = randomized
        if description is not None and description != entry.description:
            updates["description"] = description
        if provenance is not None and provenance != entry.provenance:
            updates["provenance"] = provenance
        if batch_fn is not None and batch_fn is not entry.batch_fn:
            updates["batch_fn"] = batch_fn
        if updates:
            entry = replace(entry, **updates)
    else:
        entry = SchedulerEntry(
            name=key,
            fn=fn,
            randomized=bool(randomized),
            description=description or "",
            provenance=provenance or "",
            batch_fn=batch_fn,
        )
    _REGISTRY[key] = entry
    return entry


def get_entry(name: str) -> SchedulerEntry:
    """Look up a scheduler entry by name; raises with the known names listed."""
    key = name.lower()
    try:
        return _REGISTRY[key]
    except KeyError:
        raise ModelError(
            f"unknown scheduler {name!r}; known: {', '.join(sorted(_REGISTRY))}"
        ) from None


def get_scheduler(name: str) -> SchedulerEntry:
    """Look up a scheduler by name.

    Returns the (callable) :class:`SchedulerEntry`, so existing call
    sites — ``get_scheduler(name)(workload, platform, rng)`` — keep
    working while new code can read the metadata off the same object.
    """
    return get_entry(name)


def entries() -> tuple[SchedulerEntry, ...]:
    """All registered entries, sorted by name."""
    return tuple(_REGISTRY[k] for k in sorted(_REGISTRY))


def scheduler_names() -> tuple[str, ...]:
    """All registered scheduler names, sorted."""
    return tuple(sorted(_REGISTRY))


def is_randomized(name: str) -> bool:
    """Whether the strategy's output depends on the RNG."""
    return get_entry(name).randomized


def _make_dominant(strategy: str, choice: str) -> SchedulerFn:
    def scheduler(workload: Workload, platform: Platform,
                  rng: Optional[np.random.Generator] = None) -> BaseSchedule:
        return dominant_schedule(
            workload, platform, strategy=strategy, choice=choice, rng=rng
        )

    scheduler.__name__ = f"{strategy}_{choice}_scheduler"
    return scheduler


def _make_dominant_batch(strategy: str, choice: str) -> BatchSchedulerFn:
    def batch(instances, rngs=None) -> list[BaseSchedule]:
        problem = BatchProblem(instances)
        return dominant_schedule_batch(
            problem, strategy=strategy, choice=choice, rngs=rngs
        ).schedules()

    batch.__name__ = f"{strategy}_{choice}_batch_scheduler"
    return batch


def _make_extension(module: str, attr: str) -> SchedulerFn:
    def scheduler(workload: Workload, platform: Platform,
                  rng: Optional[np.random.Generator] = None) -> BaseSchedule:
        loaded = importlib.import_module(f"..extensions.{module}", __package__)
        return getattr(loaded, attr)(workload, platform, rng)

    scheduler.__name__ = attr
    return scheduler


def _rng(seed) -> Optional[np.random.Generator]:
    return None if seed is None else np.random.default_rng(seed)


def _schedule_each(entry: SchedulerEntry, instances: list,
                   seeds: list) -> list[BaseSchedule]:
    """One scalar call per instance, each on a fresh generator."""
    return [entry(wl, pf, _rng(seed)) for (wl, pf), seed in zip(instances, seeds)]


def schedule_batch(name: str, instances, seeds=None) -> list[BaseSchedule]:
    """Schedule many (workload, platform) instances under one strategy.

    The one place that chooses between an entry's vectorized
    ``batch_fn`` and its scalar callable; the experiment engine and the
    service dispatcher both schedule through it.  ``seeds``, when
    given, holds one entry per instance: None (no generator) or
    anything :func:`numpy.random.default_rng` accepts, so randomized
    strategies draw each row's choices from its own stream, exactly as
    the scalar path would.

    Uses ``batch_fn`` when the entry has one (the six paper heuristics
    and the four baselines do), otherwise one scalar call per instance.
    If ``batch_fn`` raises, the scalar loop runs on fresh generators
    built from the same seeds — a failed randomized batch has already
    drawn from its own — so the caller gets the scalar path's result,
    or its own error.

    Returns one schedule per instance, in input order, bit-identical to
    ``get_scheduler(name)(workload, platform, default_rng(seed))`` per
    instance.
    """
    entry = get_entry(name)
    instances = list(instances)
    seeds = [None] * len(instances) if seeds is None else list(seeds)
    if len(seeds) != len(instances):
        raise ModelError(
            f"seeds has {len(seeds)} entries for {len(instances)} instances")
    if not instances:
        return []
    if entry.batch_fn is not None:
        try:
            return entry.batch_fn(instances, [
                _rng(seed) if entry.randomized else None for seed in seeds])
        except Exception:
            return _schedule_each(entry, instances, seeds)
    return _schedule_each(entry, instances, seeds)


for _name, (_strategy, _choice) in DOMINANT_HEURISTICS.items():
    register(
        _name,
        _make_dominant(_strategy, _choice),
        randomized=(_choice == "random"),
        description=f"dominant partition, strategy={_strategy}, choice={_choice}",
        provenance="paper §5 (dominant heuristics)",
        batch_fn=_make_dominant_batch(_strategy, _choice),
    )

register("allproccache", lambda wl, pf, rng=None: baselines.all_proc_cache(wl, pf),
         description="applications run in sequence, each owning machine + cache",
         provenance="paper §6.3 (baseline)",
         batch_fn=lambda instances, rngs=None: baselines.all_proc_cache_batch(
             BatchProblem(instances)))
register("fair", lambda wl, pf, rng=None: baselines.fair(wl, pf),
         description="equal processors, access-frequency-proportional cache",
         provenance="paper §6.3 (baseline)",
         batch_fn=lambda instances, rngs=None: baselines.fair_batch(
             BatchProblem(instances)).schedules())
register("0cache", lambda wl, pf, rng=None: baselines.zero_cache(wl, pf),
         description="equal-finish processors, no cache partitioned",
         provenance="paper §6.3 (baseline)",
         batch_fn=lambda instances, rngs=None: baselines.zero_cache_batch(
             BatchProblem(instances)).schedules())
register("randompart", lambda wl, pf, rng=None: baselines.random_partition(wl, pf, rng),
         randomized=True,
         description="random cache fractions, equal-finish processors",
         provenance="paper §6.3 (baseline)",
         batch_fn=lambda instances, rngs=None: baselines.random_partition_batch(
             BatchProblem(instances), rngs).schedules())

for _name, _module, _attr, _description in (
    ("speedup-aware", "speedup_aware", "speedup_aware_schedule",
     "dominant subset + Amdahl-aware KKT cache fractions"),
    ("localsearch", "local_search", "local_search_schedule",
     "dominant subset refined by add/drop/swap search"),
    ("continuous-opt", "continuous", "continuous_schedule",
     "SLSQP over cache fractions (reference upper bound)"),
):
    register(_name, _make_extension(_module, _attr),
             description=_description,
             provenance="extensions (paper §7 future work)")
