"""The seeded experiment runner.

An :class:`Experiment` bundles everything one figure needs: the sweep
points, a factory producing ``(workload, platform)`` for a point, the
schedulers to compare, and the per-schedule metrics to record.
:func:`run_experiment` executes the full ``points x reps x schedulers``
grid with independent but reproducible RNG streams (spawned from one
seed, so adding a scheduler does not perturb the workloads).

Execution is delegated to the orchestration engine
(:mod:`repro.experiments.engine`): the grid is flattened into
self-describing task records and run in-process, one batch call per
scheduler.  When a cache directory is
configured (``cache_dir=`` or ``REPRO_CACHE_DIR``), results are
content-addressed by the experiment spec
(:mod:`repro.experiments.cache`) and a re-run is a cache hit that does
no scheduling work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..core.application import Workload
from ..core.platform import Platform
from ..core.schedule import BaseSchedule
from ..types import ModelError
from .cache import ResultCache, resolve_cache_dir
from .engine import execute_tasks, generate_tasks
from .results import MAKESPAN, ExperimentResult

__all__ = ["Experiment", "run_experiment", "DEFAULT_METRICS"]

#: Factory: (sweep point, rng) -> (workload, platform).
InstanceFactory = Callable[[float, np.random.Generator], tuple[Workload, Platform]]

#: Metric: schedule -> float.
MetricFn = Callable[[BaseSchedule], float]

DEFAULT_METRICS: dict[str, MetricFn] = {MAKESPAN: lambda s: s.makespan()}


@dataclass
class Experiment:
    """Declarative description of one experiment (one paper figure).

    Attributes
    ----------
    experiment_id, title, xlabel
        Identification / presentation strings.
    points : numpy.ndarray
        Sweep values (the x axis).
    factory : InstanceFactory
        Builds the random instance for a sweep point.
    schedulers : tuple[str, ...]
        Registry names to compare.
    metrics : dict[str, MetricFn]
        What to record per schedule; defaults to the makespan.
    reps : int
        Repetitions (the paper uses 50).
    seed : int
        Root seed for the reproducible RNG tree.
    """

    experiment_id: str
    title: str
    xlabel: str
    points: np.ndarray
    factory: InstanceFactory
    schedulers: tuple[str, ...]
    metrics: dict[str, MetricFn] = field(default_factory=lambda: dict(DEFAULT_METRICS))
    reps: int = 10
    seed: int = 2017

    def __post_init__(self) -> None:
        self.points = np.asarray(self.points, dtype=np.float64)
        if self.points.ndim != 1 or self.points.size == 0:
            raise ModelError("points must be a non-empty 1-D array")
        if self.reps < 1:
            raise ModelError(f"reps must be >= 1, got {self.reps}")
        if not self.schedulers:
            raise ModelError("need at least one scheduler")


def run_experiment(
    exp: Experiment,
    *,
    progress: Callable[[str], None] | None = None,
    backend: str = "serial",
    cache_dir=None,
    use_cache: bool = True,
) -> ExperimentResult:
    """Execute the grid and collect an :class:`ExperimentResult`.

    RNG discipline: one child seed per (rep, point) pair drives the
    instance factory, and an independent child per (rep, point,
    scheduler) drives randomized schedulers — so every scheduler sees
    the *same* workload instance, and randomized heuristics do not
    share streams.

    Parameters
    ----------
    progress : callable, optional
        Called with short status strings as work completes.
    backend : str
        Only ``"serial"`` is accepted; any other value raises
        :class:`ModelError`.  The grid always runs in-process; the
        keyword stays because the repository benchmark
        (``perfbench/sweep.py``) passes ``backend="serial"``.
    cache_dir : str | Path, optional
        Result-cache directory; defaults to ``REPRO_CACHE_DIR``;
        caching is disabled when neither is set.
    use_cache : bool
        Set False to bypass the cache entirely (no read, no write).
    """
    if backend != "serial":
        raise ModelError(
            f"unknown backend {backend!r}; the experiment grid runs "
            f"in-process only ('serial')")
    cache = None
    if use_cache:
        resolved_dir = resolve_cache_dir(cache_dir)
        if resolved_dir is not None:
            cache = ResultCache(resolved_dir)
    if cache is not None:
        cached = cache.load(exp)
        if cached is not None:
            if progress is not None:
                progress(f"{exp.experiment_id}: cache hit ({cache.path_for(exp).name})")
            return cached

    tasks = generate_tasks(exp)
    samples = execute_tasks(exp, tasks, progress=progress)

    npoints = exp.points.size
    data = {
        name: {metric: np.empty((exp.reps, npoints)) for metric in exp.metrics}
        for name in exp.schedulers
    }
    for task, metrics in zip(tasks, samples):
        for metric, value in metrics.items():
            data[task.scheduler][metric][task.rep, task.point_index] = value

    result = ExperimentResult(
        experiment_id=exp.experiment_id,
        title=exp.title,
        xlabel=exp.xlabel,
        x=exp.points.copy(),
        data=data,
        meta={"reps": exp.reps, "seed": exp.seed,
              "schedulers": list(exp.schedulers)},
    )
    if cache is not None:
        cache.store(exp, result)
    return result
