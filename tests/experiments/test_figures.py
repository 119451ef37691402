"""Tests for the per-figure experiment definitions.

Every figure must build, run at reduced size, and produce the series
the paper plots (the *shape* assertions live in test_paper_claims.py;
here we verify plumbing and normalization targets).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import repro.core.registry as registry_mod
from repro.experiments import (
    FIGURE_NORMALIZATIONS,
    FIGURES,
    build_figure,
    figure_ids,
    run_experiment,
)
from repro.types import ModelError

_SMALL_POINTS = {
    "fig1": np.array([2.0, 8.0]),
    "fig2": np.array([0.1, 0.5]),
    "fig3": np.array([2.0, 8.0]),
    "fig4": np.array([4.0, 32.0]),
    "fig5": np.array([64.0, 256.0]),
    "fig6": np.array([0.0, 0.1]),
    "fig7": np.array([2.0, 8.0]),
    "fig8": np.array([2.0, 8.0]),
    "fig9": np.array([64.0, 256.0]),
    "fig10": np.array([64.0, 256.0]),
    "fig11": np.array([64.0, 256.0]),
    "fig12": np.array([64.0, 256.0]),
    "fig13": np.array([0.0, 0.1]),
    "fig14": np.array([0.0, 0.1]),
    "fig15": np.array([0.1, 1.0]),
    "fig16": np.array([0.1, 1.0]),
    "fig17": np.array([2.0, 8.0]),
    "fig18": np.array([0.1, 0.5]),
}


class TestFigureRegistry:
    def test_eighteen_figures(self):
        assert len(FIGURES) == 18
        assert figure_ids() == tuple(f"fig{i}" for i in range(1, 19))

    def test_every_figure_has_normalization(self):
        assert set(FIGURE_NORMALIZATIONS) == set(FIGURES)

    def test_unknown_figure(self):
        with pytest.raises(ModelError):
            build_figure("fig99")

    def test_case_insensitive(self):
        assert build_figure("FIG1", reps=1).experiment_id == "fig1"


@pytest.mark.parametrize("figure_id", sorted(FIGURES, key=lambda s: int(s[3:])))
class TestEveryFigureRuns:
    def test_runs_and_normalizes(self, figure_id):
        exp = build_figure(figure_id, reps=2, seed=1,
                           points=_SMALL_POINTS[figure_id])
        res = run_experiment(exp)
        assert res.experiment_id == figure_id
        for norm in FIGURE_NORMALIZATIONS[figure_id]:
            if norm is None:
                series = {n: res.mean(n) for n in res.data}
            else:
                series = res.normalized(by=norm)
                assert np.allclose(series[norm], 1.0)
            for name, vals in series.items():
                assert np.all(np.isfinite(vals)), (figure_id, name)
                assert np.all(vals > 0), (figure_id, name)

    def test_batch_grid_matches_scalar_path(self, figure_id, monkeypatch):
        """Each figure's grid, batched per scheduler, equals the same
        grid evaluated by one scalar registry call per cell."""
        exp = build_figure(figure_id, reps=1, seed=3,
                           points=_SMALL_POINTS[figure_id])
        batched = run_experiment(exp, use_cache=False)
        real = registry_mod.get_entry
        monkeypatch.setattr(
            registry_mod, "get_entry",
            lambda name: dataclasses.replace(real(name), batch_fn=None))
        scalar = run_experiment(exp, use_cache=False)
        assert batched.schedulers == scalar.schedulers
        for name in batched.schedulers:
            for metric in exp.metrics:
                got = batched.samples(name, metric)
                want = scalar.samples(name, metric)
                assert got.tobytes() == want.tobytes(), (name, metric)


class TestRepartitionMetrics:
    def test_fig7_records_allocations(self):
        exp = build_figure("fig7", reps=1, points=np.array([4.0]))
        res = run_experiment(exp)
        for metric in ("proc_min", "proc_mean", "proc_max",
                       "cache_min", "cache_mean", "cache_max"):
            assert res.samples("dominant-minratio", metric).shape == (1, 1)
        # min <= mean <= max
        lo = res.mean("dominant-minratio", "proc_min")
        mid = res.mean("dominant-minratio", "proc_mean")
        hi = res.mean("dominant-minratio", "proc_max")
        assert lo <= mid <= hi

    def test_fair_min_equals_max_procs(self):
        """The paper's observation: Fair allocates identically."""
        exp = build_figure("fig7", reps=1, points=np.array([8.0]))
        res = run_experiment(exp)
        assert res.mean("fair", "proc_min") == pytest.approx(
            res.mean("fair", "proc_max")
        )
