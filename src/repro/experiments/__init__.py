"""Experiment harness: engine, cache, runner, figure definitions, tables."""

from .cache import PruneReport, ResultCache, resolve_cache_dir, spec_fingerprint
from .engine import Task, execute_tasks, generate_tasks
from .figures import (
    FIGURE_NORMALIZATIONS,
    FIGURES,
    build_figure,
    figure_ids,
)
from .results import MAKESPAN, ExperimentResult
from .runner import DEFAULT_METRICS, Experiment, run_experiment
from .table2 import ProfiledBenchmark, regenerate_table2
from .tables import format_table, render_result

__all__ = [
    "Experiment",
    "run_experiment",
    "DEFAULT_METRICS",
    "Task",
    "generate_tasks",
    "execute_tasks",
    "ResultCache",
    "PruneReport",
    "resolve_cache_dir",
    "spec_fingerprint",
    "ExperimentResult",
    "MAKESPAN",
    "FIGURES",
    "FIGURE_NORMALIZATIONS",
    "build_figure",
    "figure_ids",
    "format_table",
    "render_result",
    "ProfiledBenchmark",
    "regenerate_table2",
]
