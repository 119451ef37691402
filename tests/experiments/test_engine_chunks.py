"""Scheduler-major process chunking: plan shape and bit-identity."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import registry, zero_cache
from repro.core.registry import SchedulerEntry, get_entry
from repro.experiments import Experiment, run_experiment
from repro.experiments.engine import (
    _plan_process_chunks,
    _split_indices,
    generate_tasks,
)
from repro.machine import taihulight
from repro.workloads import npb_synth


def _factory(point, rng):
    return npb_synth(max(1, int(point)), rng), taihulight()


@pytest.fixture(autouse=True)
def scalar_only_scheduler(monkeypatch):
    """A scheduler without a ``batch_fn``, for the plan's scalar pool."""
    monkeypatch.setitem(registry._REGISTRY, "scalar-0cache", SchedulerEntry(
        "scalar-0cache", lambda wl, pf, rng=None: zero_cache(wl, pf)))


def _exp(**kw):
    base = dict(
        experiment_id="chunks",
        title="chunk planning",
        xlabel="n",
        points=np.array([2.0, 3.0, 4.0]),
        factory=_factory,
        schedulers=("dominant-minratio", "scalar-0cache", "randompart"),
        reps=2,
        seed=11,
    )
    base.update(kw)
    return Experiment(**base)


class TestSplitIndices:
    def test_contiguous_and_complete(self):
        parts = _split_indices(list(range(10)), 3)
        assert [i for part in parts for i in part] == list(range(10))
        assert all(part == list(range(part[0], part[-1] + 1))
                   for part in parts)

    def test_more_chunks_than_items(self):
        assert _split_indices([5, 7], 8) == [[5], [7]]

    def test_one_chunk(self):
        assert _split_indices([1, 2, 3], 1) == [[1, 2, 3]]


class TestPlanProcessChunks:
    def test_perm_is_a_permutation(self):
        exp = _exp()
        tasks = generate_tasks(exp)
        chunks, perm = _plan_process_chunks(exp, tasks, 8)
        assert sorted(perm) == list(range(len(tasks)))
        assert sum(len(c) for c in chunks) == len(tasks)

    def test_chunk_order_matches_perm(self):
        exp = _exp()
        tasks = generate_tasks(exp)
        chunks, perm = _plan_process_chunks(exp, tasks, 8)
        flat = [task for chunk in chunks for task in chunk]
        assert flat == [tasks[i] for i in perm]

    def test_batchable_chunks_are_scheduler_pure(self):
        exp = _exp()
        tasks = generate_tasks(exp)
        chunks, _ = _plan_process_chunks(exp, tasks, 8)
        for chunk in chunks:
            schedulers = {task.scheduler for task in chunk}
            batchable = {s for s in schedulers
                         if get_entry(s).batch_fn is not None}
            # a chunk mixes schedulers only in the scalar pool
            if batchable:
                assert schedulers == batchable and len(schedulers) == 1

    def test_custom_evaluate_keeps_identity_plan(self):
        exp = _exp(evaluate=lambda *args: {"makespan": 1.0},
                   schedulers=("dominant-minratio",))
        tasks = generate_tasks(exp)
        chunks, perm = _plan_process_chunks(exp, tasks, 4)
        assert perm == list(range(len(tasks)))
        flat = [task for chunk in chunks for task in chunk]
        assert flat == list(tasks)

    def test_unknown_scheduler_routes_to_scalar_pool(self):
        exp = _exp()
        tasks = generate_tasks(exp)
        fake = [dataclasses.replace(t, scheduler="no-such")
                if i % 2 else t for i, t in enumerate(tasks)]
        chunks, perm = _plan_process_chunks(exp, fake, 8)
        assert sorted(perm) == list(range(len(fake)))
        # unknown names land in chunks with no batchable scheduler
        for chunk in chunks:
            if any(t.scheduler == "no-such" for t in chunk):
                assert all(get_entry(t.scheduler).batch_fn is None
                           for t in chunk if t.scheduler != "no-such")


class TestProcessBitIdentity:
    def test_process_matches_serial(self):
        exp = _exp()
        serial = run_experiment(exp, backend="serial", use_cache=False)
        procs = run_experiment(_exp(), backend="process", workers=2,
                               use_cache=False)
        for name in exp.schedulers:
            np.testing.assert_array_equal(serial.samples(name),
                                          procs.samples(name))
