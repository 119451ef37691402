"""Experiment definitions for every figure of the paper.

Each ``figureNN`` builder returns an :class:`Experiment` reproducing
the corresponding figure's sweep; run it with
:func:`repro.experiments.runner.run_experiment` and normalize per the
paper's caption (``repro figure`` does this).  Figure
numbering follows the research report RR-8965: Figs. 1-7 in the body,
Figs. 8-18 in Appendix A.

Repetitions default to 10 to keep a full regeneration on a laptop
quick; pass ``reps=50`` for the paper's protocol (results are already
stable at 10 — the series are ratios of averages over many random
applications).
"""

from __future__ import annotations

import numpy as np

from ..core.application import Workload
from ..core.platform import Platform
from ..core.registry import PAPER_HEURISTICS
from ..machine.presets import small_llc, taihulight
from ..types import ModelError
from ..workloads.synthetic import npb6, npb_synth, random_workload
from .results import MAKESPAN
from .runner import Experiment

__all__ = [
    "FIGURES",
    "FIGURE_NORMALIZATIONS",
    "build_figure",
    "figure_ids",
    "NAPPS_POINTS",
    "NPROCS_POINTS",
    "SEQ_POINTS",
    "MISS_POINTS",
    "LS_POINTS",
]

#: Default sweep grids (the paper's axis ranges).
NAPPS_POINTS = np.array([1, 2, 4, 8, 16, 32, 64, 128, 192, 256], dtype=float)
NPROCS_POINTS = np.array([16, 32, 64, 96, 128, 160, 192, 224, 256], dtype=float)
SEQ_POINTS = np.array([0.0, 0.01, 0.02, 0.04, 0.06, 0.08, 0.11, 0.15])
MISS_POINTS = np.array([0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0])
LS_POINTS = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0])
RATIO_POINTS = np.array([1, 2, 4, 8, 16, 32, 64, 128], dtype=float)

_MAIN_FIVE = ("allproccache", "dominant-minratio", "randompart", "fair", "0cache")
_COSCHED_FOUR = ("dominant-minratio", "randompart", "fair", "0cache")

# -- instance factories -----------------------------------------------------


def _synth_napps(point: float, rng: np.random.Generator) -> tuple[Workload, Platform]:
    return npb_synth(max(1, int(round(point))), rng), taihulight()


def _random_napps(point: float, rng: np.random.Generator) -> tuple[Workload, Platform]:
    return random_workload(max(1, int(round(point))), rng), taihulight()


def _synth_nprocs(n: int):
    def factory(point: float, rng: np.random.Generator) -> tuple[Workload, Platform]:
        return npb_synth(n, rng), taihulight(p=float(point))

    return factory


def _random_nprocs(n: int):
    def factory(point: float, rng: np.random.Generator) -> tuple[Workload, Platform]:
        return random_workload(n, rng), taihulight(p=float(point))

    return factory


def _npb6_nprocs(point: float, rng: np.random.Generator) -> tuple[Workload, Platform]:
    return npb6(rng=rng), taihulight(p=float(point))


def _synth_seq(n: int):
    def factory(point: float, rng: np.random.Generator) -> tuple[Workload, Platform]:
        return npb_synth(n, rng).with_sequential_fraction(point), taihulight()

    return factory


def _npb6_seq(point: float, rng: np.random.Generator) -> tuple[Workload, Platform]:
    return npb6(rng=rng).with_sequential_fraction(point), taihulight()


def _random_seq(n: int):
    def factory(point: float, rng: np.random.Generator) -> tuple[Workload, Platform]:
        return random_workload(n, rng).with_sequential_fraction(point), taihulight()

    return factory


def _synth_missrate(n: int):
    def factory(point: float, rng: np.random.Generator) -> tuple[Workload, Platform]:
        return npb_synth(n, rng).with_miss_rate(point), small_llc()

    return factory


def _synth_latency(n: int, seq: float):
    def factory(point: float, rng: np.random.Generator) -> tuple[Workload, Platform]:
        wl = npb_synth(n, rng).with_sequential_fraction(seq)
        return wl, taihulight().with_latencies(latency_cache=float(point))

    return factory


def _ratio_factory(point: float, rng: np.random.Generator) -> tuple[Workload, Platform]:
    n = max(1, int(round(256.0 / point)))
    return npb_synth(n, rng), taihulight()


# -- repartition metrics (Figs. 7, 17) ---------------------------------------


def _proc_metric(stat: str):
    fn = {"min": np.min, "mean": np.mean, "max": np.max}[stat]
    return lambda s: float(fn(s.procs))


def _cache_metric(stat: str):
    fn = {"min": np.min, "mean": np.mean, "max": np.max}[stat]
    return lambda s: float(fn(s.cache))


_REPARTITION_METRICS = {
    MAKESPAN: lambda s: s.makespan(),
    "proc_min": _proc_metric("min"),
    "proc_mean": _proc_metric("mean"),
    "proc_max": _proc_metric("max"),
    "cache_min": _cache_metric("min"),
    "cache_mean": _cache_metric("mean"),
    "cache_max": _cache_metric("max"),
}

# -- figure builders ----------------------------------------------------------


def figure1(*, reps: int = 10, seed: int = 2017, points=None) -> Experiment:
    """Fig. 1: the six dominant heuristics vs AllProcCache, n sweep."""
    return Experiment(
        experiment_id="fig1",
        title="Comparison of the six dominant partition heuristics (NPB-SYNTH)",
        xlabel="#Applications",
        points=NAPPS_POINTS if points is None else points,
        factory=_synth_napps,
        schedulers=("allproccache",) + PAPER_HEURISTICS,
        reps=reps,
        seed=seed,
    )


def figure2(*, reps: int = 10, seed: int = 2017, points=None, napps: int = 16) -> Experiment:
    """Fig. 2: impact of the cache miss rate with a 1 GB LLC."""
    return Experiment(
        experiment_id="fig2",
        title="Impact of cache miss rate using a 1GB LLC (NPB-SYNTH)",
        xlabel="Cache miss rate",
        points=MISS_POINTS if points is None else points,
        factory=_synth_missrate(napps),
        schedulers=PAPER_HEURISTICS,
        reps=reps,
        seed=seed,
    )


def figure3(*, reps: int = 10, seed: int = 2017, points=None) -> Experiment:
    """Fig. 3: impact of the number of applications (NPB-SYNTH, p=256)."""
    return Experiment(
        experiment_id="fig3",
        title="Impact of the number of applications (NPB-SYNTH)",
        xlabel="#Applications",
        points=NAPPS_POINTS if points is None else points,
        factory=_synth_napps,
        schedulers=_MAIN_FIVE,
        reps=reps,
        seed=seed,
    )


def figure4(*, reps: int = 10, seed: int = 2017, points=None) -> Experiment:
    """Fig. 4: impact of the average number of processors per application."""
    return Experiment(
        experiment_id="fig4",
        title="Impact of the average #processors per application (NPB-SYNTH)",
        xlabel="#Processors/#Applications",
        points=RATIO_POINTS if points is None else points,
        factory=_ratio_factory,
        schedulers=_COSCHED_FOUR,
        reps=reps,
        seed=seed,
    )


def figure5(*, reps: int = 10, seed: int = 2017, points=None, napps: int = 16) -> Experiment:
    """Fig. 5: impact of the number of processors (16 applications)."""
    return Experiment(
        experiment_id="fig5",
        title="Impact of the number of processors (NPB-SYNTH, 16 apps)",
        xlabel="#Processors",
        points=NPROCS_POINTS if points is None else points,
        factory=_synth_nprocs(napps),
        schedulers=_MAIN_FIVE,
        reps=reps,
        seed=seed,
    )


def figure6(*, reps: int = 10, seed: int = 2017, points=None, napps: int = 16) -> Experiment:
    """Fig. 6: impact of the sequential fraction (16 apps, p=256)."""
    return Experiment(
        experiment_id="fig6",
        title="Impact of the sequential fraction of work (NPB-SYNTH, 16 apps)",
        xlabel="Sequential part",
        points=SEQ_POINTS if points is None else points,
        factory=_synth_seq(napps),
        schedulers=_MAIN_FIVE,
        reps=reps,
        seed=seed,
    )


def figure7(*, reps: int = 10, seed: int = 2017, points=None) -> Experiment:
    """Fig. 7: processor and cache repartition (min/avg/max), NPB-SYNTH."""
    return Experiment(
        experiment_id="fig7",
        title="Processor and cache repartition with 256 processors (NPB-SYNTH)",
        xlabel="#Applications",
        points=NAPPS_POINTS if points is None else points,
        factory=_synth_napps,
        schedulers=("dominant-minratio", "fair", "0cache"),
        metrics=dict(_REPARTITION_METRICS),
        reps=reps,
        seed=seed,
    )


def figure8(*, reps: int = 10, seed: int = 2017, points=None) -> Experiment:
    """Fig. 8 (A.1): number of applications with the RANDOM data set."""
    return Experiment(
        experiment_id="fig8",
        title="Impact of the number of applications (RANDOM)",
        xlabel="#Applications",
        points=NAPPS_POINTS if points is None else points,
        factory=_random_napps,
        schedulers=_MAIN_FIVE,
        reps=reps,
        seed=seed,
    )


def figure9(*, reps: int = 10, seed: int = 2017, points=None, napps: int = 64) -> Experiment:
    """Fig. 9 (A.2): number of processors, NPB-SYNTH with 64 apps."""
    return Experiment(
        experiment_id="fig9",
        title="Impact of the number of processors (NPB-SYNTH, 64 apps)",
        xlabel="#Processors",
        points=NPROCS_POINTS if points is None else points,
        factory=_synth_nprocs(napps),
        schedulers=_COSCHED_FOUR,
        reps=reps,
        seed=seed,
    )


def figure10(*, reps: int = 10, seed: int = 2017, points=None) -> Experiment:
    """Fig. 10 (A.2): number of processors with NPB-6 (6 apps)."""
    return Experiment(
        experiment_id="fig10",
        title="Impact of the number of processors (NPB-6)",
        xlabel="#Processors",
        points=NPROCS_POINTS if points is None else points,
        factory=_npb6_nprocs,
        schedulers=_MAIN_FIVE,
        reps=reps,
        seed=seed,
    )


def figure11(*, reps: int = 10, seed: int = 2017, points=None, napps: int = 16) -> Experiment:
    """Fig. 11 (A.2): number of processors, RANDOM with 16 apps."""
    return Experiment(
        experiment_id="fig11",
        title="Impact of the number of processors (RANDOM, 16 apps)",
        xlabel="#Processors",
        points=NPROCS_POINTS if points is None else points,
        factory=_random_nprocs(napps),
        schedulers=_MAIN_FIVE,
        reps=reps,
        seed=seed,
    )


def figure12(*, reps: int = 10, seed: int = 2017, points=None, napps: int = 64) -> Experiment:
    """Fig. 12 (A.2): number of processors, RANDOM with 64 apps."""
    return Experiment(
        experiment_id="fig12",
        title="Impact of the number of processors (RANDOM, 64 apps)",
        xlabel="#Processors",
        points=NPROCS_POINTS if points is None else points,
        factory=_random_nprocs(napps),
        schedulers=_COSCHED_FOUR,
        reps=reps,
        seed=seed,
    )


def figure13(*, reps: int = 10, seed: int = 2017, points=None) -> Experiment:
    """Fig. 13 (A.3): sequential fraction with NPB-6."""
    return Experiment(
        experiment_id="fig13",
        title="Impact of the sequential fraction of work (NPB-6)",
        xlabel="Sequential part",
        points=SEQ_POINTS if points is None else points,
        factory=_npb6_seq,
        schedulers=_MAIN_FIVE,
        reps=reps,
        seed=seed,
    )


def figure14(*, reps: int = 10, seed: int = 2017, points=None, napps: int = 16) -> Experiment:
    """Fig. 14 (A.3): sequential fraction with RANDOM (16 apps)."""
    return Experiment(
        experiment_id="fig14",
        title="Impact of the sequential fraction of work (RANDOM, 16 apps)",
        xlabel="Sequential part",
        points=SEQ_POINTS if points is None else points,
        factory=_random_seq(napps),
        schedulers=_MAIN_FIVE,
        reps=reps,
        seed=seed,
    )


def figure15(*, reps: int = 10, seed: int = 2017, points=None, napps: int = 16) -> Experiment:
    """Fig. 15 (A.4): cache latency ls, 16 apps, s=1e-4."""
    return Experiment(
        experiment_id="fig15",
        title="Impact of latency ls (NPB-SYNTH, 16 apps, s=1e-4)",
        xlabel="ls value",
        points=LS_POINTS if points is None else points,
        factory=_synth_latency(napps, 1e-4),
        schedulers=_MAIN_FIVE,
        reps=reps,
        seed=seed,
    )


def figure16(*, reps: int = 10, seed: int = 2017, points=None, napps: int = 64) -> Experiment:
    """Fig. 16 (A.4): cache latency ls, 64 apps, s=1e-4."""
    return Experiment(
        experiment_id="fig16",
        title="Impact of latency ls (NPB-SYNTH, 64 apps, s=1e-4)",
        xlabel="ls value",
        points=LS_POINTS if points is None else points,
        factory=_synth_latency(napps, 1e-4),
        schedulers=_MAIN_FIVE,
        reps=reps,
        seed=seed,
    )


def figure17(*, reps: int = 10, seed: int = 2017, points=None) -> Experiment:
    """Fig. 17 (A.5): processor and cache repartition with RANDOM."""
    return Experiment(
        experiment_id="fig17",
        title="Processor and cache repartition with 256 processors (RANDOM)",
        xlabel="#Applications",
        points=NAPPS_POINTS if points is None else points,
        factory=_random_napps,
        schedulers=("dominant-minratio", "fair", "0cache"),
        metrics=dict(_REPARTITION_METRICS),
        reps=reps,
        seed=seed,
    )


def figure18(*, reps: int = 10, seed: int = 2017, points=None, napps: int = 16) -> Experiment:
    """Fig. 18 (A.6): miss-rate sweep with all nine heuristics, 1 GB LLC."""
    return Experiment(
        experiment_id="fig18",
        title="Impact of cache miss rate using a 1GB LLC, all heuristics (NPB-SYNTH)",
        xlabel="Cache miss rate",
        points=MISS_POINTS if points is None else points,
        factory=_synth_missrate(napps),
        schedulers=PAPER_HEURISTICS + ("randompart", "fair", "0cache"),
        reps=reps,
        seed=seed,
    )


#: Figure id -> builder.
FIGURES = {
    f"fig{i}": fn
    for i, fn in enumerate(
        (figure1, figure2, figure3, figure4, figure5, figure6, figure7, figure8,
         figure9, figure10, figure11, figure12, figure13, figure14, figure15,
         figure16, figure17, figure18),
        start=1,
    )
}

#: Figure id -> the normalization the paper's plot uses
#: (None = raw; tuple = the paper shows both normalizations).
FIGURE_NORMALIZATIONS: dict[str, tuple[str | None, ...]] = {
    "fig1": ("allproccache",),
    "fig2": ("dominant-minratio",),
    "fig3": ("allproccache", "dominant-minratio"),
    "fig4": ("dominant-minratio",),
    "fig5": ("allproccache", "dominant-minratio"),
    "fig6": ("allproccache", "dominant-minratio"),
    "fig7": (None,),
    "fig8": ("allproccache", "dominant-minratio"),
    "fig9": ("dominant-minratio",),
    "fig10": ("allproccache", "dominant-minratio"),
    "fig11": ("allproccache", "dominant-minratio"),
    "fig12": ("dominant-minratio",),
    "fig13": ("allproccache", "dominant-minratio"),
    "fig14": ("allproccache", "dominant-minratio"),
    "fig15": ("allproccache",),
    "fig16": ("allproccache",),
    "fig17": (None,),
    "fig18": ("dominant-minratio",),
}


def figure_ids() -> tuple[str, ...]:
    """All known figure ids, in paper order."""
    return tuple(FIGURES)


def build_figure(figure_id: str, **kwargs) -> Experiment:
    """Build a figure's experiment by id (e.g. ``"fig3"``)."""
    try:
        builder = FIGURES[figure_id.lower()]
    except KeyError:
        raise ModelError(
            f"unknown figure {figure_id!r}; known: {', '.join(FIGURES)}"
        ) from None
    return builder(**kwargs)
