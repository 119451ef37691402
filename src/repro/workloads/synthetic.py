"""Synthetic workload generators of Section 6.1 and Appendix A.

Three data sets, named as in the paper:

* ``NPB-6`` — the six measured applications, verbatim.
* ``NPB-SYNTH`` — applications drawn from the NPB profiles with the
  work ``w`` re-drawn uniformly in [1e8, 1e12] (the paper "varies the
  work randomly between 1E+8 and 1E+12"; a *linear* uniform draw
  reproduces the paper's reported Fair-vs-AllProcCache ratio of ~1.9,
  a log-uniform one does not); ``f`` and ``m_40MB`` are taken from a
  randomly chosen NPB benchmark.  Pass ``log_work=True`` for the
  heavier-tailed log-uniform variant.
* ``RANDOM`` — everything re-drawn: ``w`` uniform in [1e8, 1e12],
  ``f`` in [0.1, 0.9], ``m_40MB`` log-uniform in [9e-4, 9e-2] (the
  appendix lists "1E-02 to 9E-04"; we use the inclusive hull of the
  quoted bounds).

Unless stated otherwise the sequential fraction is drawn uniformly in
[0.01, 0.15] ("taken randomly between 1% and 15%").  All draws flow
through an explicit :class:`numpy.random.Generator` for
reproducibility.
"""

from __future__ import annotations

import numpy as np

from ..core.application import Workload
from ..types import ModelError
from .npb import NPB_TABLE2

__all__ = [
    "WORK_RANGE",
    "SEQ_RANGE",
    "npb6",
    "npb_synth",
    "random_workload",
    "generate",
    "DATASETS",
]

#: Work range of Section 6.1 (operations).
WORK_RANGE: tuple[float, float] = (1e8, 1e12)

#: Sequential-fraction range of Section 6.1.
SEQ_RANGE: tuple[float, float] = (0.01, 0.15)

#: RANDOM data set parameter ranges (Appendix A).
RANDOM_FREQ_RANGE: tuple[float, float] = (1e-1, 9e-1)
RANDOM_MISS_RANGE: tuple[float, float] = (9e-4, 9e-2)

#: Table 2 as columns: names and the ``w``, ``f``, ``m_40MB`` arrays.
_NPB_NAMES = tuple(NPB_TABLE2)
_NPB_WORK, _NPB_FREQ, _NPB_MISS = np.array(list(NPB_TABLE2.values())).T


def _draw_seq(rng: np.random.Generator, n: int, seq_range) -> np.ndarray | float:
    """Sequential fractions uniform in *seq_range*, or 0 when it is None."""
    return 0.0 if seq_range is None else rng.uniform(*seq_range, size=n)


def _draw_loguniform(rng: np.random.Generator, lo: float, hi: float, n: int) -> np.ndarray:
    return np.exp(rng.uniform(np.log(lo), np.log(hi), size=n))


def _draw_work(rng: np.random.Generator, n: int, work_range, log_work: bool) -> np.ndarray:
    if log_work:
        return _draw_loguniform(rng, *work_range, n)
    return rng.uniform(*work_range, size=n)


def npb6(*, seq_range: tuple[float, float] | None = SEQ_RANGE,
         rng: np.random.Generator | None = None) -> Workload:
    """The NPB-6 data set: six measured applications.

    ``seq_range=None`` keeps them perfectly parallel; otherwise each
    application receives a random sequential fraction (needs *rng*).
    """
    if rng is None and seq_range is not None:
        rng = np.random.default_rng()
    seqs = _draw_seq(rng, len(_NPB_NAMES), seq_range)
    return Workload.from_columns(_NPB_NAMES, _NPB_WORK, seqs, _NPB_FREQ, _NPB_MISS)


def npb_synth(
    n: int,
    rng: np.random.Generator,
    *,
    work_range: tuple[float, float] = WORK_RANGE,
    seq_range: tuple[float, float] | None = SEQ_RANGE,
    log_work: bool = False,
) -> Workload:
    """The NPB-SYNTH data set: NPB profiles with randomized work.

    Each synthetic application copies ``(f, m_40MB)`` from a uniformly
    chosen NPB benchmark and draws its work uniformly from
    *work_range* (log-uniformly with ``log_work=True``).
    """
    if n < 1:
        raise ModelError(f"need at least one application, got n={n}")
    picks = rng.integers(len(_NPB_NAMES), size=n)
    works = _draw_work(rng, n, work_range, log_work)
    seqs = _draw_seq(rng, n, seq_range)
    names = [f"{_NPB_NAMES[k]}-synth{i}" for i, k in enumerate(picks.tolist())]
    return Workload.from_columns(names, works, seqs, _NPB_FREQ[picks], _NPB_MISS[picks])


def random_workload(
    n: int,
    rng: np.random.Generator,
    *,
    work_range: tuple[float, float] = WORK_RANGE,
    freq_range: tuple[float, float] = RANDOM_FREQ_RANGE,
    miss_range: tuple[float, float] = RANDOM_MISS_RANGE,
    seq_range: tuple[float, float] | None = SEQ_RANGE,
    log_work: bool = False,
) -> Workload:
    """The RANDOM data set: every parameter drawn independently."""
    if n < 1:
        raise ModelError(f"need at least one application, got n={n}")
    works = _draw_work(rng, n, work_range, log_work)
    freqs = rng.uniform(*freq_range, size=n)
    misses = _draw_loguniform(rng, *miss_range, n)
    seqs = _draw_seq(rng, n, seq_range)
    return Workload.from_columns([f"rand{i}" for i in range(n)], works, seqs,
                                 freqs, misses)


def generate(dataset: str, n: int, rng: np.random.Generator, **kwargs) -> Workload:
    """Generate a named data set (``npb-6``, ``npb-synth``, ``random``).

    ``npb-6`` ignores *n* beyond requiring ``n <= 6`` and returns the
    first *n* of the six measured applications (the paper always uses
    all six).
    """
    key = dataset.lower()
    if key in ("npb-6", "npb6"):
        wl = npb6(rng=rng, **kwargs)
        if n > wl.n:
            raise ModelError(f"NPB-6 has only {wl.n} applications, asked for {n}")
        return wl[:n] if n < wl.n else wl
    if key in ("npb-synth", "npbsynth"):
        return npb_synth(n, rng, **kwargs)
    if key == "random":
        return random_workload(n, rng, **kwargs)
    raise ModelError(f"unknown dataset {dataset!r}; known: {', '.join(DATASETS)}")


#: Names accepted by :func:`generate`.
DATASETS: tuple[str, ...] = ("npb-6", "npb-synth", "random")
