"""Orchestration engine: task generation and in-process evaluation.

The experiment grid ``points x reps x schedulers`` is flattened into
self-describing :class:`Task` records (stage 1), which
:func:`execute_tasks` prices in one pass (stage 2); the runner
assembles the per-task metric dicts back into :class:`ExperimentResult`
arrays and consults the on-disk result cache (stage 3, see
:mod:`repro.experiments.cache`).

Seed discipline is the one the runner has always used — one
:class:`numpy.random.SeedSequence` child per ``(rep, point)`` pair for
the instance factory and an independent child per ``(rep, point,
scheduler)`` for randomized schedulers — so a task carries its seeds
and evaluating it is a pure function of the task record.  That is what
makes the results independent of evaluation order, identical across
processes and runs, and cacheable.

Evaluation is one path: build each ``(rep, point)`` instance once
(factory memo), group the tasks by scheduler, price each group with
one structure-of-arrays batch call when the scheduler's registry entry
carries a vectorized ``batch_fn`` (the six paper heuristics and the
four Section 6.3 baselines, :mod:`repro.core.batch`) or one scalar
call per task otherwise, then apply the metric functions.  The batch
path is bit-identical to the scalar path, so grouping is a pure
optimization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from ..core.registry import get_entry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runner imports us)
    from .runner import Experiment

__all__ = ["Task", "generate_tasks", "execute_tasks"]


@dataclass(frozen=True)
class Task:
    """One cell of the experiment grid: ``(rep, point, scheduler)``.

    A task is self-describing: evaluating it needs only the experiment
    (for the factory and the metric functions) and the record itself —
    the seeds pin down the workload instance and the scheduler stream,
    so any grouping and any execution order produce the same floats.

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
    bit-identical to every earlier version of the runner.
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


def execute_tasks(
    exp: "Experiment",
    tasks: Sequence[Task],
    *,
    progress: Callable[[str], None] | None = None,
) -> list[dict[str, float]]:
    """Evaluate *tasks* (stage 2); one metric dict per task, in order.

    Workload instances are memoized per ``(rep, point)`` cell —
    rebuilding from ``instance_seed`` is deterministic, so the memo is
    a pure optimization.  Tasks are then grouped per scheduler: a
    scheduler whose entry carries a vectorized ``batch_fn`` gets one
    batch call for its whole group, the others one scalar call per
    task.  Each task still gets its own generator seeded from
    ``scheduler_seed``, so results do not depend on grouping.  If a
    batch call fails, the group falls back to the scalar loop so error
    messages match the scalar path exactly.
    """
    memo: dict[tuple[int, int], tuple] = {}
    out: list[dict[str, float] | None] = [None] * len(tasks)
    groups: dict[str, list[tuple[int, object, object, object]]] = {}
    for idx, task in enumerate(tasks):
        cell = (task.rep, task.point_index)
        pair = memo.get(cell)
        if pair is None:
            pair = memo[cell] = exp.factory(
                task.point, np.random.default_rng(task.instance_seed))
        workload, platform = pair
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
    if progress is not None:
        progress(f"{exp.experiment_id}: {len(tasks)}/{len(tasks)} tasks done")
    return out
