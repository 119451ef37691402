"""The per-application workload generators, frozen as a test oracle.

Until workloads were built from their columns, ``repro.workloads``
drew whole columns, built one validated :class:`Application` per
application, and handed them to ``Workload(applications)``, which read
the columns back out; ``Workload.with_sequential_fraction`` and
``with_miss_rate`` copied every application with one field replaced.
The live generators now build workloads with ``Workload.from_columns``;
this module keeps the per-application bodies verbatim so the golden
suite can assert that every generated workload — its column bytes, its
names and its applications — is the one the paper's figures were first
computed with.

Do not "fix" anything here — the point is to freeze the historical
draws and conversions exactly.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.core.application import Application, Workload
from repro.types import ModelError
from repro.workloads.npb import NPB_TABLE2, npb6_workload_data
from repro.workloads.synthetic import (
    RANDOM_FREQ_RANGE,
    RANDOM_MISS_RANGE,
    SEQ_RANGE,
    WORK_RANGE,
)

__all__ = ["npb6", "npb_synth", "random_workload",
           "with_sequential_fraction", "with_miss_rate"]


def _draw_seq(rng: np.random.Generator, n: int, seq_range=SEQ_RANGE) -> np.ndarray:
    lo, hi = seq_range
    return rng.uniform(lo, hi, size=n)


def _draw_loguniform(rng: np.random.Generator, lo: float, hi: float, n: int) -> np.ndarray:
    return np.exp(rng.uniform(np.log(lo), np.log(hi), size=n))


def _draw_uniform(rng: np.random.Generator, lo: float, hi: float, n: int) -> np.ndarray:
    return rng.uniform(lo, hi, size=n)


def npb6(*, seq_range: tuple[float, float] | None = SEQ_RANGE,
         rng: np.random.Generator | None = None) -> Workload:
    apps = npb6_workload_data()
    if seq_range is None:
        return Workload(apps)
    if rng is None:
        rng = np.random.default_rng()
    seqs = _draw_seq(rng, len(apps), seq_range)
    return Workload(
        replace(app, seq_fraction=float(s)) for app, s in zip(apps, seqs)
    )


def npb_synth(
    n: int,
    rng: np.random.Generator,
    *,
    work_range: tuple[float, float] = WORK_RANGE,
    seq_range: tuple[float, float] | None = SEQ_RANGE,
    log_work: bool = False,
) -> Workload:
    if n < 1:
        raise ModelError(f"need at least one application, got n={n}")
    profiles = list(NPB_TABLE2.items())
    picks = rng.integers(len(profiles), size=n)
    draw = _draw_loguniform if log_work else _draw_uniform
    works = draw(rng, *work_range, n)
    seqs = _draw_seq(rng, n, seq_range) if seq_range is not None else np.zeros(n)
    apps = []
    for i in range(n):
        base_name, (_, f, m40) = profiles[int(picks[i])]
        apps.append(
            Application(
                name=f"{base_name}-synth{i}",
                work=float(works[i]),
                seq_fraction=float(seqs[i]),
                access_freq=f,
                miss_rate=m40,
            )
        )
    return Workload(apps)


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
    if n < 1:
        raise ModelError(f"need at least one application, got n={n}")
    draw = _draw_loguniform if log_work else _draw_uniform
    works = draw(rng, *work_range, n)
    freqs = rng.uniform(*freq_range, size=n)
    misses = _draw_loguniform(rng, *miss_range, n)
    seqs = _draw_seq(rng, n, seq_range) if seq_range is not None else np.zeros(n)
    return Workload(
        Application(
            name=f"rand{i}",
            work=float(works[i]),
            seq_fraction=float(seqs[i]),
            access_freq=float(freqs[i]),
            miss_rate=float(misses[i]),
        )
        for i in range(n)
    )


def with_sequential_fraction(workload: Workload, s) -> Workload:
    svals = np.broadcast_to(np.asarray(s, dtype=np.float64), (workload.n,))
    return Workload(
        app.scaled(seq_fraction=float(si)) for app, si in zip(workload, svals)
    )


def with_miss_rate(workload: Workload, m0) -> Workload:
    mvals = np.broadcast_to(np.asarray(m0, dtype=np.float64), (workload.n,))
    return Workload(
        replace(app, miss_rate=float(mi)) for app, mi in zip(workload, mvals)
    )
