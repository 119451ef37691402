"""Tests for the experiment runner."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import Experiment, run_experiment
from repro.machine import taihulight
from repro.types import ModelError
from repro.workloads import npb_synth


def _factory(point, rng):
    return npb_synth(max(1, int(point)), rng), taihulight()


def _exp(**kw):
    base = dict(
        experiment_id="t",
        title="test",
        xlabel="n",
        points=np.array([2.0, 4.0]),
        factory=_factory,
        schedulers=("dominant-minratio", "0cache"),
        reps=2,
        seed=7,
    )
    base.update(kw)
    return Experiment(**base)


class TestExperimentValidation:
    def test_valid(self):
        assert _exp().points.tolist() == [2.0, 4.0]

    def test_rejects_empty_points(self):
        with pytest.raises(ModelError):
            _exp(points=np.array([]))

    def test_rejects_zero_reps(self):
        with pytest.raises(ModelError):
            _exp(reps=0)

    def test_rejects_no_schedulers(self):
        with pytest.raises(ModelError):
            _exp(schedulers=())


class TestRunner:
    def test_shapes(self):
        res = run_experiment(_exp())
        assert res.x.tolist() == [2.0, 4.0]
        assert res.samples("0cache").shape == (2, 2)

    def test_reproducible(self):
        a = run_experiment(_exp())
        b = run_experiment(_exp())
        assert np.allclose(a.samples("dominant-minratio"),
                           b.samples("dominant-minratio"))

    def test_seed_changes_results(self):
        a = run_experiment(_exp(seed=1))
        b = run_experiment(_exp(seed=2))
        assert not np.allclose(a.samples("0cache"), b.samples("0cache"))

    def test_same_instances_across_schedulers(self):
        """Adding a scheduler must not change the others' samples."""
        few = run_experiment(_exp(schedulers=("0cache",)))
        more = run_experiment(_exp(schedulers=("0cache", "fair")))
        assert np.allclose(few.samples("0cache"), more.samples("0cache"))

    def test_custom_metrics(self):
        exp = _exp(metrics={"makespan": lambda s: s.makespan(),
                            "nprocs": lambda s: float(s.procs.sum())})
        res = run_experiment(exp)
        assert np.allclose(res.samples("0cache", "nprocs"), 256.0, rtol=1e-6)

    def test_progress_callback(self):
        messages = []
        run_experiment(_exp(), progress=messages.append)
        assert messages == ["t: 8/8 tasks done"]  # one batch per grid

    def test_meta_recorded(self):
        res = run_experiment(_exp())
        assert res.meta["reps"] == 2
        assert res.meta["seed"] == 7
