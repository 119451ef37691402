"""Orchestration engine: task generation and pluggable execution backends.

The experiment grid ``points x reps x schedulers`` is flattened into
self-describing :class:`Task` records (stage 1), which an execution
backend evaluates in chunked batches (stage 2); the runner assembles
the per-task metric dicts back into :class:`ExperimentResult` arrays
and consults the on-disk result cache (stage 3, see
:mod:`repro.experiments.cache`).

Seed discipline is the one the serial runner has always used — one
:class:`numpy.random.SeedSequence` child per ``(rep, point)`` pair for
the instance factory and an independent child per ``(rep, point,
scheduler)`` for randomized schedulers — so every backend produces
**bit-identical** results: a task carries its seeds, and evaluating it
is a pure function of the task record.  That is what makes the grid
embarrassingly parallel and the results cacheable.

Within each chunk, the tasks of a scheduler that exposes a vectorized
``batch_fn`` (the six paper heuristics and the four Section 6.3
baselines) are evaluated through one structure-of-arrays batch call
(:mod:`repro.core.batch`) rather than one Python call per task; the
batch path is bit-identical to the scalar path, so this too is a pure
optimization.

Backends
--------
``"serial"``
    In-process evaluation of the whole grid as one chunk (the
    default): one factory memo, and one batch call per scheduler.
``"process"``
    A ``multiprocessing`` pool (fork start method) over chunked task
    batches.  Worker processes inherit the experiment object through
    the fork, so factories and metric functions may be closures — only
    the task records and the metric floats cross process boundaries.
    On platforms without ``fork`` the engine falls back to ``serial``
    with a warning.

Backend selection precedence: explicit ``backend=`` argument, then the
:attr:`Experiment.backend` field, then the ``REPRO_BACKEND``
environment variable, then ``"serial"``.  Worker count: ``workers=``
argument, then ``REPRO_WORKERS``, then ``os.cpu_count()``.
"""

from __future__ import annotations

import multiprocessing
import os
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from ..cache import LRUCache
from ..core.registry import get_entry
from ..types import ModelError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runner imports us)
    from .runner import Experiment

__all__ = [
    "Task",
    "BACKENDS",
    "generate_tasks",
    "execute_tasks",
    "resolve_backend",
    "resolve_workers",
]

#: Supported execution backends.
BACKENDS: tuple[str, ...] = ("serial", "process")

#: Env var naming the default backend (overridden by Experiment.backend
#: and the ``backend=`` argument).
BACKEND_ENV = "REPRO_BACKEND"

#: Env var naming the process-pool size (default: ``os.cpu_count()``).
WORKERS_ENV = "REPRO_WORKERS"


@dataclass(frozen=True)
class Task:
    """One cell of the experiment grid: ``(rep, point, scheduler)``.

    A task is self-describing: evaluating it needs only the experiment
    (for the factory and the metric functions) and the record itself —
    the seeds pin down the workload instance and the scheduler stream,
    so any backend, any chunking, and any execution order produce the
    same floats.

    Attributes
    ----------
    rep, point_index : int
        Grid coordinates.
    point : float
        Sweep value (``experiment.points[point_index]``).
    scheduler : str
        Registry name.
    instance_seed : numpy.random.SeedSequence
        Child seed driving the instance factory; shared by every
        scheduler at the same ``(rep, point)`` cell so all schedulers
        see the same workload.
    scheduler_seed : numpy.random.SeedSequence
        Independent child driving this scheduler's own stream.
    """

    rep: int
    point_index: int
    point: float
    scheduler: str
    instance_seed: np.random.SeedSequence
    scheduler_seed: np.random.SeedSequence


def generate_tasks(exp: "Experiment") -> list[Task]:
    """Flatten the grid into task records (stage 1).

    The spawn tree is exactly the historical serial runner's: root ->
    reps -> points -> (instance, scheduler...), so results are
    bit-identical to every earlier version of the runner regardless of
    the backend that later evaluates the tasks.
    """
    npoints = exp.points.size
    root = np.random.SeedSequence(exp.seed)
    rep_seeds = root.spawn(exp.reps)
    tasks: list[Task] = []
    for r in range(exp.reps):
        point_seeds = rep_seeds[r].spawn(npoints)
        for j, point in enumerate(exp.points):
            instance_seed, *sched_seeds = point_seeds[j].spawn(1 + len(exp.schedulers))
            for k, name in enumerate(exp.schedulers):
                tasks.append(Task(
                    rep=r,
                    point_index=j,
                    point=float(point),
                    scheduler=name,
                    instance_seed=instance_seed,
                    scheduler_seed=sched_seeds[k],
                ))
    return tasks


def resolve_backend(backend: str | None, exp: "Experiment" | None = None) -> str:
    """Pick the backend: argument > Experiment field > env > serial."""
    if backend is None and exp is not None:
        backend = exp.backend
    if backend is None:
        backend = os.environ.get(BACKEND_ENV) or "serial"
    backend = backend.lower()
    if backend not in BACKENDS:
        raise ModelError(
            f"unknown backend {backend!r}; known: {', '.join(BACKENDS)}"
        )
    return backend


def resolve_workers(workers: int | None) -> int:
    """Pick the pool size: argument > REPRO_WORKERS > cpu_count."""
    if workers is None:
        env = os.environ.get(WORKERS_ENV)
        if env:
            try:
                workers = int(env)
            except ValueError:
                raise ModelError(
                    f"{WORKERS_ENV} must be an integer, got {env!r}") from None
        else:
            workers = os.cpu_count() or 1
    if workers < 1:
        raise ModelError(f"workers must be >= 1, got {workers}")
    return workers


def _split_indices(items: Sequence, nchunks: int) -> list[list]:
    """Split a sequence into at most *nchunks* contiguous parts."""
    n = len(items)
    nchunks = max(1, min(nchunks, n))
    bounds = np.linspace(0, n, nchunks + 1).astype(int)
    return [list(items[a:b]) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]


def _plan_process_chunks(
    exp: "Experiment", tasks: Sequence[Task], nchunks: int,
) -> tuple[list[list[Task]], list[int]]:
    """Scheduler-major chunk plan: ship whole batches to workers.

    The naive contiguous chunking hands each worker a slice of the
    scheduler-innermost grid, so a chunk's tasks for any one vectorized
    scheduler form only a sliver of a batch — each worker re-batches
    its own fragment.  This plan instead groups every batchable
    scheduler's tasks together and chunks *within* the group, so each
    worker chunk is one whole structure-of-arrays batch call (plus a
    shared pool of scalar-only tasks, kept in original order).

    Returns ``(chunks, perm)`` where ``perm[i]`` is the original task
    index of the i-th result in concatenated chunk order — evaluation
    is a pure function of the task record, so reordering is invisible
    once results are permuted back.

    Experiments with a custom ``evaluate`` keep the historical
    contiguous chunking (that path is scalar and leans on the
    per-cell factory memo, which contiguity keeps warm).
    """
    if exp.evaluate is not None:
        return _split_indices(tasks, nchunks), list(range(len(tasks)))
    groups: dict[str, list[int]] = {}
    scalar: list[int] = []
    for i, task in enumerate(tasks):
        try:
            entry = get_entry(task.scheduler)
        except Exception:
            # Unknown scheduler: route to the scalar loop, where the
            # worker raises the same error the serial engine would.
            scalar.append(i)
            continue
        if entry.batch_fn is not None:
            groups.setdefault(entry.name, []).append(i)
        else:
            scalar.append(i)
    segments = ([scalar] if scalar else []) + [
        groups[name] for name in sorted(groups)]
    total = len(tasks)
    chunks: list[list[Task]] = []
    perm: list[int] = []
    for segment in segments:
        share = max(1, round(nchunks * len(segment) / total))
        for part in _split_indices(segment, share):
            chunks.append([tasks[i] for i in part])
            perm.extend(part)
    return chunks, perm


def _scenario_seed(instance_seed: np.random.SeedSequence) -> np.random.SeedSequence:
    """The per-cell scenario stream, derived without mutating the tree.

    Reconstructs ``instance_seed.spawn(1)[0]`` explicitly (the factory
    only ever consumes the *generator* built from ``instance_seed``,
    never spawns from the sequence itself, so child 0 is free) — the
    historical spawn counts, and therefore every existing result and
    cache entry, are untouched, and the derivation is stable across
    chunkings and backends.
    """
    return np.random.SeedSequence(
        entropy=instance_seed.entropy,
        spawn_key=tuple(instance_seed.spawn_key) + (0,),
    )


def _run_batch(exp: "Experiment", batch: Iterable[Task]) -> list[dict[str, float]]:
    """Evaluate a batch of tasks; returns one metric dict per task.

    Workload instances are memoized per ``(rep, point)`` cell within
    the batch — rebuilding from ``instance_seed`` is deterministic, so
    the memo is a pure optimization.

    Unless the experiment has a custom ``evaluate``, tasks are
    collected per scheduler; a scheduler whose entry carries a
    vectorized ``batch_fn`` (every paper heuristic and baseline) gets
    one batch call for its whole group, the others one scalar call per
    task.  The batch path is bit-identical to the scalar path by
    construction (see :mod:`repro.core.batch`) and each task still gets
    its own generator seeded from ``scheduler_seed``, so results do not
    depend on grouping.  If a batch call fails, the group falls back to
    the scalar loop so error messages match the scalar path exactly.
    """
    tasks = list(batch)
    # The per-batch factory memo rides the unified in-memory backend
    # (counter-free peek/put).  Capacity covers every distinct cell in
    # the batch, so nothing is ever evicted and rebuilding from
    # instance_seed stays a pure optimization.
    memo: LRUCache = LRUCache(max(len(tasks), 1))
    out: list[dict[str, float] | None] = [None] * len(tasks)
    groups: dict[str, list[tuple[int, object, object, object]]] = {}
    for idx, task in enumerate(tasks):
        cell = (task.rep, task.point_index)
        pair = memo.peek(cell)
        if pair is None:
            pair = exp.factory(
                task.point, np.random.default_rng(task.instance_seed))
            memo.put(cell, pair)
        workload, platform = pair
        if exp.evaluate is not None:
            sample = exp.evaluate(
                workload, platform, task.scheduler,
                np.random.default_rng(_scenario_seed(task.instance_seed)),
                np.random.default_rng(task.scheduler_seed))
            missing = exp.metrics.keys() - sample.keys()
            if missing:
                raise ModelError(
                    f"evaluator returned no value for metric(s) "
                    f"{sorted(missing)} (declared: {sorted(exp.metrics)})")
            out[idx] = {metric: sample[metric] for metric in exp.metrics}
            continue
        groups.setdefault(task.scheduler, []).append(
            (idx, workload, platform, task.scheduler_seed))
    for name, group in groups.items():
        entry = get_entry(name)
        schedules = None
        if entry.batch_fn is not None:
            instances = [(wl, pf) for _, wl, pf, _ in group]
            rngs = [np.random.default_rng(seed) for _, _, _, seed in group]
            try:
                schedules = entry.batch_fn(instances, rngs)
            except Exception:
                schedules = None  # scalar loop below reproduces the error
        if schedules is None:
            schedules = [entry(wl, pf, np.random.default_rng(seed))
                         for _, wl, pf, seed in group]
        for (idx, _, _, _), schedule in zip(group, schedules):
            out[idx] = {metric: fn(schedule)
                        for metric, fn in exp.metrics.items()}
    return out


# The experiment travels to pool workers through fork inheritance of
# this module global (factories and metrics are often closures, which
# do not pickle); tasks and metric floats are what actually cross the
# process boundary.
_WORKER_EXPERIMENT: "Experiment | None" = None


def _run_batch_worker(batch: list[Task]) -> list[dict[str, float]]:
    assert _WORKER_EXPERIMENT is not None, "worker initialized without experiment"
    return _run_batch(_WORKER_EXPERIMENT, batch)


def _execute_process(
    exp: "Experiment",
    tasks: Sequence[Task],
    workers: int,
    progress: Callable[[str], None] | None,
) -> list[dict[str, float]]:
    global _WORKER_EXPERIMENT
    workers = min(workers, len(tasks))
    # ~4 chunks per worker balances load without drowning in IPC;
    # chunks are planned scheduler-major so each one ships a whole
    # structure-of-arrays batch to its worker (see _plan_process_chunks).
    chunks, perm = _plan_process_chunks(exp, tasks, workers * 4)
    ctx = multiprocessing.get_context("fork")
    _WORKER_EXPERIMENT = exp
    try:
        with ctx.Pool(processes=workers) as pool:
            done = 0
            flat: list[dict[str, float]] = []
            for i, chunk_result in enumerate(pool.imap(_run_batch_worker, chunks)):
                flat.extend(chunk_result)
                done += len(chunks[i])
                if progress is not None:
                    progress(
                        f"{exp.experiment_id}: {done}/{len(tasks)} tasks done"
                    )
    finally:
        _WORKER_EXPERIMENT = None
    # Invert the plan's permutation: result i answers task perm[i].
    results: list[dict[str, float]] = [None] * len(tasks)  # type: ignore[list-item]
    for position, original in enumerate(perm):
        results[original] = flat[position]
    return results


def execute_tasks(
    exp: "Experiment",
    tasks: Sequence[Task],
    *,
    backend: str = "serial",
    workers: int | None = None,
    progress: Callable[[str], None] | None = None,
) -> list[dict[str, float]]:
    """Evaluate *tasks* with *backend* (stage 2); order-preserving.

    The returned list is parallel to *tasks* whatever the backend or
    chunking, so the runner can assemble result arrays positionally.
    """
    if backend == "process":
        if "fork" not in multiprocessing.get_all_start_methods():
            warnings.warn(
                "process backend needs the fork start method; "
                "falling back to serial", RuntimeWarning, stacklevel=2)
            backend = "serial"
        elif len(tasks) <= 1:
            backend = "serial"
    if backend == "serial":
        results = _run_batch(exp, tasks)
        if progress is not None:
            progress(f"{exp.experiment_id}: {len(tasks)}/{len(tasks)} tasks done")
        return results
    if backend == "process":
        return _execute_process(exp, tasks, resolve_workers(workers), progress)
    raise ModelError(f"unknown backend {backend!r}; known: {', '.join(BACKENDS)}")
