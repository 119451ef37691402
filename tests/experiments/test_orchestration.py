"""Tests for the orchestration engine: tasks, backends, result cache."""

from __future__ import annotations

import dataclasses
import multiprocessing

import numpy as np
import pytest

import repro.experiments.engine as engine_mod
from repro.core import baselines, get_scheduler, register, registry
from repro.experiments import (
    Experiment,
    ResultCache,
    build_figure,
    execute_tasks,
    generate_tasks,
    resolve_backend,
    resolve_workers,
    run_experiment,
    spec_fingerprint,
)
from repro.machine import taihulight
from repro.types import ModelError
from repro.workloads import npb_synth

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")


def _factory(point, rng):
    return npb_synth(max(1, int(point)), rng), taihulight()


def _make_factory(napps):
    def factory(point, rng):
        return npb_synth(napps, rng), taihulight()

    return factory


def _exp(**kw):
    base = dict(
        experiment_id="t",
        title="test",
        xlabel="n",
        points=np.array([2.0, 4.0]),
        factory=_factory,
        schedulers=("randompart", "dominant-random", "fair"),
        reps=2,
        seed=7,
    )
    base.update(kw)
    return Experiment(**base)


def _assert_identical(a, b):
    assert tuple(a.data) == tuple(b.data)
    for name in a.data:
        for metric in a.data[name]:
            assert np.array_equal(a.data[name][metric], b.data[name][metric]), (
                name, metric)


class TestTaskGeneration:
    def test_grid_flattening(self):
        exp = _exp()
        tasks = generate_tasks(exp)
        assert len(tasks) == exp.reps * exp.points.size * len(exp.schedulers)
        coords = {(t.rep, t.point_index, t.scheduler) for t in tasks}
        assert len(coords) == len(tasks)

    def test_schedulers_share_instance_seed_per_cell(self):
        tasks = generate_tasks(_exp())
        by_cell = {}
        for t in tasks:
            by_cell.setdefault((t.rep, t.point_index), set()).add(
                t.instance_seed.entropy)
        assert all(len(seeds) == 1 for seeds in by_cell.values())

    def test_scheduler_seeds_independent(self):
        tasks = generate_tasks(_exp())
        keys = {(t.scheduler_seed.entropy, t.scheduler_seed.spawn_key)
                for t in tasks}
        assert len(keys) == len(tasks)

    def test_order_independent_evaluation(self):
        """Tasks are self-describing: shuffled execution, same floats."""
        exp = _exp()
        tasks = generate_tasks(exp)
        forward = execute_tasks(exp, tasks, backend="serial")
        perm = np.random.default_rng(0).permutation(len(tasks))
        shuffled = execute_tasks(exp, [tasks[i] for i in perm], backend="serial")
        for pos, i in enumerate(perm):
            assert forward[i] == shuffled[pos]


class TestBackendResolution:
    def test_default_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert resolve_backend(None, _exp()) == "serial"

    def test_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "process")
        assert resolve_backend(None, _exp()) == "process"

    def test_experiment_field_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "process")
        assert resolve_backend(None, _exp(backend="serial")) == "serial"

    def test_argument_beats_field(self):
        assert resolve_backend("serial", _exp(backend="process")) == "serial"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ModelError):
            resolve_backend("threads", _exp())
        with pytest.raises(ModelError):
            run_experiment(_exp(backend="threads"))

    def test_workers_resolution(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers(None) == 3
        assert resolve_workers(2) == 2
        with pytest.raises(ModelError):
            resolve_workers(0)


@needs_fork
class TestProcessBackend:
    def test_bit_identical_to_serial_randomized(self):
        """The acceptance bar: randomized heuristics included, the
        process backend reproduces the serial arrays bit for bit."""
        exp = _exp()
        serial = run_experiment(exp, backend="serial", use_cache=False)
        procs = run_experiment(exp, backend="process", workers=2,
                               use_cache=False)
        _assert_identical(serial, procs)

    def test_backend_recorded_in_meta(self):
        res = run_experiment(_exp(reps=1), backend="process", workers=2,
                             use_cache=False)
        assert res.meta["backend"] == "process"

    def test_progress_reports_completion(self):
        messages = []
        run_experiment(_exp(), backend="process", workers=2, use_cache=False,
                       progress=messages.append)
        assert messages and "tasks done" in messages[-1]

    def test_real_figure_parity(self):
        exp = build_figure("fig6", reps=2, points=np.array([0.0, 0.05]))
        serial = run_experiment(exp, backend="serial", use_cache=False)
        procs = run_experiment(exp, backend="process", workers=2,
                               use_cache=False)
        _assert_identical(serial, procs)


class TestResultCache:
    def _counting_scheduler(self):
        calls = []
        fair = get_scheduler("fair")

        def counting(wl, pf, rng=None):
            calls.append(1)
            return fair(wl, pf, rng)

        register("counting-sched", counting, overwrite=True)
        return calls

    def test_hit_skips_recomputation(self, tmp_path):
        calls = self._counting_scheduler()
        exp = _exp(schedulers=("counting-sched",))
        first = run_experiment(exp, cache_dir=tmp_path)
        assert len(calls) == exp.reps * exp.points.size
        second = run_experiment(exp, cache_dir=tmp_path)
        assert len(calls) == exp.reps * exp.points.size  # no new invocations
        _assert_identical(first, second)
        assert second.meta["seed"] == exp.seed

    def test_spec_change_invalidates(self, tmp_path):
        calls = self._counting_scheduler()
        base = dict(schedulers=("counting-sched",))
        run_experiment(_exp(**base), cache_dir=tmp_path)
        baseline = len(calls)
        for changed in (
            _exp(seed=8, **base),
            _exp(reps=3, **base),
            _exp(points=np.array([2.0, 8.0]), **base),
            _exp(factory=_make_factory(3), **base),
        ):
            before = len(calls)
            run_experiment(changed, cache_dir=tmp_path)
            assert len(calls) > before, "spec change must recompute"
        assert baseline < len(calls)

    def test_fingerprint_sees_closure_values(self):
        a = _exp(factory=_make_factory(4))
        b = _exp(factory=_make_factory(8))
        assert spec_fingerprint(a) != spec_fingerprint(b)
        assert spec_fingerprint(a) == spec_fingerprint(_exp(factory=_make_factory(4)))

    def test_scheduler_code_change_invalidates(self):
        """Editing (re-registering) a scheduler must change the key, or
        a warm cache would silently serve pre-fix arrays."""
        fair = get_scheduler("fair")
        zero = get_scheduler("0cache")
        register("mut-sched", lambda wl, pf, rng=None: fair(wl, pf, rng),
                 overwrite=True)
        exp = _exp(schedulers=("mut-sched",))
        before = spec_fingerprint(exp)
        register("mut-sched", lambda wl, pf, rng=None: zero(wl, pf, rng),
                 overwrite=True)
        assert spec_fingerprint(exp) != before

    def test_callee_name_change_invalidates(self):
        """Same bytecode, different global called: a different key."""
        register("mut-sched", lambda wl, pf, rng=None: baselines.fair(wl, pf),
                 overwrite=True)
        exp = _exp(schedulers=("mut-sched",))
        before = spec_fingerprint(exp)
        register("mut-sched",
                 lambda wl, pf, rng=None: baselines.zero_cache(wl, pf),
                 overwrite=True)
        assert spec_fingerprint(exp) != before

    def test_batch_fn_change_invalidates(self, monkeypatch):
        """The batch evaluator computes the grid cells, so re-registering
        a scheduler with a different ``batch_fn`` must change the key."""
        entry = get_scheduler("dominant-minratio")
        exp = _exp(schedulers=("dominant-minratio",))
        before = spec_fingerprint(exp)
        monkeypatch.setitem(registry._REGISTRY, "dominant-minratio",
                            dataclasses.replace(entry, batch_fn=lambda
                                                instances, rngs=None: []))
        assert spec_fingerprint(exp) != before

    def test_metric_code_change_invalidates(self):
        a = _exp(metrics={"makespan": lambda s: s.makespan()})
        b = _exp(metrics={"makespan": lambda s: s.makespan() * 2.0})
        assert spec_fingerprint(a) != spec_fingerprint(b)

    def test_unwritable_store_keeps_result(self, tmp_path):
        """A cache-store failure costs the entry, not the computed run."""
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        exp = _exp(schedulers=("fair",))
        with pytest.warns(RuntimeWarning, match="result cache"):
            result = run_experiment(exp, cache_dir=blocker)
        assert result.samples("fair").shape == (exp.reps, exp.points.size)

    def test_fingerprint_sees_schedulers_and_metrics(self):
        a = _exp()
        assert spec_fingerprint(a) != spec_fingerprint(_exp(schedulers=("fair",)))
        assert spec_fingerprint(a) != spec_fingerprint(
            _exp(metrics={"makespan": lambda s: s.makespan(),
                          "nprocs": lambda s: float(s.procs.sum())}))

    def test_use_cache_false_bypasses(self, tmp_path):
        calls = self._counting_scheduler()
        exp = _exp(schedulers=("counting-sched",))
        run_experiment(exp, cache_dir=tmp_path)
        before = len(calls)
        run_experiment(exp, cache_dir=tmp_path, use_cache=False)
        assert len(calls) == 2 * before

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        exp = _exp(schedulers=("fair",))
        cache = ResultCache(tmp_path)
        first = run_experiment(exp, cache_dir=tmp_path)
        cache.path_for(exp).write_bytes(b"not an npz")
        second = run_experiment(exp, cache_dir=tmp_path)
        _assert_identical(first, second)

    def test_env_var_enables_cache(self, tmp_path, monkeypatch):
        calls = self._counting_scheduler()
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        exp = _exp(schedulers=("counting-sched",))
        run_experiment(exp)
        before = len(calls)
        run_experiment(exp)
        assert len(calls) == before
        assert list(tmp_path.glob("t-*.npz"))

    def test_repartition_metrics_roundtrip(self, tmp_path):
        """Multi-metric results (Figs. 7/17) survive the npz round trip."""
        exp = build_figure("fig7", reps=1, points=np.array([2.0]))
        first = run_experiment(exp, cache_dir=tmp_path)
        second = run_experiment(exp, cache_dir=tmp_path)
        _assert_identical(first, second)
        assert set(second.data["fair"]) == set(exp.metrics)

    def test_warm_cache_figure_counts_invocations(self, tmp_path, monkeypatch):
        """Acceptance criterion: a warm-cache figure rerun invokes no
        scheduler at all (counted through the engine's entry lookup)."""
        exp = build_figure("fig1", reps=1, points=np.array([2.0]))
        lookups = []
        real = engine_mod.get_entry

        def counted(name):
            lookups.append(name)
            return real(name)

        monkeypatch.setattr(engine_mod, "get_entry", counted)
        run_experiment(exp, cache_dir=tmp_path)
        assert lookups  # cold run did schedule
        lookups.clear()
        run_experiment(exp, cache_dir=tmp_path)
        assert lookups == []  # warm run touched no scheduler
