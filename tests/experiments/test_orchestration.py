"""Tests for the orchestration engine: tasks, evaluation, result cache."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import repro.experiments.engine as engine_mod
from repro.core import baselines, get_entry, get_scheduler, register, registry
from repro.experiments import (
    Experiment,
    ResultCache,
    build_figure,
    execute_tasks,
    generate_tasks,
    run_experiment,
    spec_fingerprint,
)
from repro.machine import taihulight
from repro.types import ModelError
from repro.workloads import npb_synth


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
        forward = execute_tasks(exp, tasks)
        perm = np.random.default_rng(0).permutation(len(tasks))
        shuffled = execute_tasks(exp, [tasks[i] for i in perm])
        for pos, i in enumerate(perm):
            assert forward[i] == shuffled[pos]


class TestEvaluation:
    def test_mixed_batch_and_scalar_grid_matches_registry(self, monkeypatch):
        """Batch groups and a scalar-only scheduler in one grid: every
        cell equals its own scalar registry call, bit for bit."""
        monkeypatch.setitem(
            registry._REGISTRY, "scalar-randpart",
            dataclasses.replace(get_entry("randompart"),
                                name="scalar-randpart", batch_fn=None))
        exp = _exp(schedulers=("dominant-random", "scalar-randpart", "fair"),
                   points=np.array([2.0, 3.0, 5.0]), reps=3)
        assert get_entry("dominant-random").batch_fn is not None
        result = run_experiment(exp, use_cache=False)
        for task in generate_tasks(exp):
            workload, platform = exp.factory(
                task.point, np.random.default_rng(task.instance_seed))
            want = get_entry(task.scheduler)(
                workload, platform,
                np.random.default_rng(task.scheduler_seed)).makespan()
            got = result.samples(task.scheduler)[task.rep, task.point_index]
            assert np.float64(want).tobytes() == np.float64(got).tobytes(), task

    def test_unknown_scheduler_raises_registry_error(self):
        with pytest.raises(ModelError, match="unknown scheduler 'no-such'"):
            run_experiment(_exp(schedulers=("fair", "no-such")),
                           use_cache=False)

    def test_only_serial_backend_accepted(self):
        result = run_experiment(_exp(reps=1), backend="serial",
                                use_cache=False)
        assert "backend" not in result.meta
        with pytest.raises(ModelError, match="backend 'process'"):
            run_experiment(_exp(), backend="process", use_cache=False)

    def test_progress_reports_completion(self):
        messages = []
        run_experiment(_exp(), use_cache=False, progress=messages.append)
        assert messages and "tasks done" in messages[-1]

    def test_factory_runs_once_per_cell(self):
        """Every scheduler at a ``(rep, point)`` cell shares one instance."""
        cells = []

        def counting(point, rng):
            cells.append(point)
            return _factory(point, rng)

        exp = _exp(factory=counting)
        tasks = generate_tasks(exp)
        execute_tasks(exp, tasks)
        assert len(tasks) == exp.reps * exp.points.size * len(exp.schedulers)
        assert len(cells) == exp.reps * exp.points.size

    def test_empty_task_list_builds_nothing(self):
        exp = _exp(factory=lambda point, rng: pytest.fail("factory called"))
        assert execute_tasks(exp, []) == []

    def test_grouping_does_not_change_cells(self):
        """One scheduler's tasks evaluated alone give the same floats
        as inside the full mixed grid."""
        exp = _exp()
        tasks = generate_tasks(exp)
        full = execute_tasks(exp, tasks)
        for name in exp.schedulers:
            idx = [i for i, t in enumerate(tasks) if t.scheduler == name]
            alone = execute_tasks(exp, [tasks[i] for i in idx])
            assert alone == [full[i] for i in idx], name

    def test_failing_batch_call_falls_back_to_scalar(self, monkeypatch):
        calls = []

        def broken(instances, rngs=None):
            calls.append(len(instances))
            raise RuntimeError("batch kernel failed")

        exp = _exp(schedulers=("dominant-random", "fair"))
        want = run_experiment(exp, use_cache=False)
        monkeypatch.setitem(
            registry._REGISTRY, "dominant-random",
            dataclasses.replace(get_entry("dominant-random"), batch_fn=broken))
        _assert_identical(run_experiment(exp, use_cache=False), want)
        assert calls == [exp.reps * exp.points.size]

    def test_batch_failure_raises_the_scalar_error(self, monkeypatch):
        """A group whose batch call fails is re-run per task, so the
        error raised is the scalar path's own."""
        def batch(instances, rngs=None):
            raise RuntimeError("batch-only message")

        def scalar(workload, platform, rng=None):
            raise ModelError("scalar-path message")

        monkeypatch.setitem(registry._REGISTRY, "failing", dataclasses.replace(
            get_entry("fair"), name="failing", fn=scalar, batch_fn=batch))
        with pytest.raises(ModelError, match="scalar-path message"):
            run_experiment(_exp(schedulers=("fair", "failing")),
                           use_cache=False)


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
