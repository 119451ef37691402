"""Injector semantics, hand-checked against the phase kernel.

These tests drive :class:`FaultInjector` through the kernel directly
with a fixed base allocator (whole machine, factor 1), so every finish
time is hand-computable: rate = procs / factor.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.chaos import (
    CompiledFaults,
    FaultEvent,
    FaultInjector,
    pool_at,
)
from repro.core import Application, Platform, Workload
from repro.simulate.kernel import EventLog, run_phase_kernel

P = 4.0


def _platform() -> Platform:
    return Platform(p=P, cache_size=1e6, latency_cache=0.17,
                    latency_memory=1.0, alpha=0.5, name="inj")


def _workload(*apps) -> Workload:
    return Workload([
        Application(name=f"w{i}", work=work, seq_fraction=seq,
                    access_freq=0.5, footprint=1e5)
        for i, (work, seq) in enumerate(apps)
    ])


def _full_machine(now, active, seq_left, par_left):
    """Whole nominal machine to every active application, factor 1."""
    return np.where(active, P, 0.0), np.ones(active.size)


def _drive(workload, compiled, *, arrivals=None, max_events=500):
    log = EventLog()
    injector = FaultInjector(workload, _platform(), compiled,
                             allocate=_full_machine, log=log,
                             arrivals=arrivals)
    result = run_phase_kernel(
        workload.work, workload.seq * workload.work,
        (1.0 - workload.seq) * workload.work,
        allocate=injector.allocate, arrivals=arrivals,
        timeline=injector.timeline, max_events=max_events, log=log)
    injector.finalize(result.now)
    return result, injector, log


def _events(*evs) -> CompiledFaults:
    return CompiledFaults(events=evs, horizon=1e9)


class TestPoolTrajectory:
    def test_stepwise_lookup(self):
        timeline = [(0.0, 4.0), (5.0, 2.0), (7.0, 6.0)]
        assert pool_at(timeline, 0.0) == 4.0
        assert pool_at(timeline, 4.999) == 4.0
        assert pool_at(timeline, 5.0) == 2.0  # boundary belongs to the step
        assert pool_at(timeline, 6.0) == 2.0
        assert pool_at(timeline, 100.0) == 6.0


class TestCrash:
    def test_full_loss_requeues_everything(self):
        # 10 par ops at rate 4; crash at 1.25 (5 done) destroys all of
        # it and takes the app down for 0.5.
        res, inj, log = _drive(
            _workload((10.0, 0.0)),
            _events(FaultEvent(time=1.25, kind="crash", target=0,
                               magnitude=0.5, aux=1.0)))
        assert res.finish_times[0] == pytest.approx(1.75 + 10.0 / 4.0)
        assert inj.crashes == 1
        assert inj.lost_work == pytest.approx(5.0)
        assert [(e.time, e.kind) for e in log.select("crash", "restart")] == [
            (1.25, "crash"), (1.75, "restart")]

    def test_partial_loss(self):
        res, inj, _ = _drive(
            _workload((10.0, 0.0)),
            _events(FaultEvent(time=1.25, kind="crash", target=0,
                               magnitude=0.5, aux=0.5)))
        # 5 done, half destroyed: 7.5 left after the restart at 1.75.
        assert res.finish_times[0] == pytest.approx(1.75 + 7.5 / 4.0)
        assert inj.lost_work == pytest.approx(2.5)

    def test_parallel_phase_rolled_back_first(self):
        # seq 4 ops at rate 1 (done t=4), then par 4 ops at rate 4
        # (done t=5).  Crash at 4.5: 2 par ops done, restore=6 refills
        # par fully (2) then seq (4) -> both phases start over.
        res, inj, log = _drive(
            _workload((8.0, 0.5)),
            _events(FaultEvent(time=4.5, kind="crash", target=0,
                               magnitude=0.5, aux=1.0)))
        assert res.finish_times[0] == pytest.approx(5.0 + 4.0 + 1.0)
        assert inj.lost_work == pytest.approx(6.0)
        # the rerun logs a second seq-done
        assert len(log.select("seq-done")) == 2

    def test_crash_on_idle_application_is_dropped(self):
        res, inj, _ = _drive(
            _workload((8.0, 0.0), (8.0, 0.0)),
            _events(FaultEvent(time=2.0, kind="crash", target=1,
                               magnitude=0.5, aux=1.0)),
            arrivals=np.array([0.0, 10.0]))
        assert inj.crashes == 0
        assert inj.dropped_faults == 1
        assert res.finish_times[1] == pytest.approx(12.0)


class TestPreempt:
    def test_outage_pauses_progress(self):
        # 40 par ops at rate 4 (clean finish 10); preempted 2..5.
        res, inj, log = _drive(
            _workload((40.0, 0.0)),
            _events(FaultEvent(time=2.0, kind="preempt", target=0,
                               magnitude=3.0)))
        assert res.finish_times[0] == pytest.approx(13.0)
        assert inj.preemptions == 1
        assert [e.time for e in log.select("preempt")] == [2.0]

    def test_overlapping_preempt_is_dropped_not_shortened(self):
        res, inj, _ = _drive(
            _workload((40.0, 0.0)),
            _events(
                FaultEvent(time=2.0, kind="preempt", target=0, magnitude=3.0),
                FaultEvent(time=3.0, kind="preempt", target=0, magnitude=0.5),
            ))
        # the second slice lands while already down: a no-op
        assert res.finish_times[0] == pytest.approx(13.0)
        assert inj.preemptions == 1
        assert inj.dropped_faults == 1


class TestChurn:
    def test_allocation_rescales_to_instantaneous_pool(self):
        # 40 par ops at rate 4; half the pool leaves at t=5 with 20
        # ops left -> rate 2 -> finish 15.
        res, inj, log = _drive(
            _workload((40.0, 0.0)),
            _events(FaultEvent(time=5.0, kind="proc_leave", magnitude=2.0)))
        assert res.finish_times[0] == pytest.approx(15.0)
        assert inj.pool_timeline == [(0.0, 4.0), (5.0, 2.0)]
        assert log.as_tuples("proc_leave") == [(5.0, "proc_leave", -1)]

    def test_idle_gap_event_applied_lazily_logged_at_own_time(self):
        # app0 finishes at 2, app1 arrives at 10: the kernel jumps the
        # 2..10 gap without allocating.  The churn at t=5 must still be
        # logged at 5.0 and shape app1's rate.
        res, inj, log = _drive(
            _workload((8.0, 0.0), (8.0, 0.0)),
            _events(FaultEvent(time=5.0, kind="proc_leave", magnitude=2.0)),
            arrivals=np.array([0.0, 10.0]))
        assert res.finish_times[0] == pytest.approx(2.0)
        assert res.finish_times[1] == pytest.approx(10.0 + 8.0 / 2.0)
        assert log.as_tuples("proc_leave") == [(5.0, "proc_leave", -1)]
        assert inj.pool_timeline == [(0.0, 4.0), (5.0, 2.0)]
        # chronological overall: the lazy catch-up did not reorder time
        times = [e.time for e in log]
        assert times == sorted(times)


class TestClassCap:
    def _injector(self, base):
        compiled = CompiledFaults(classes=np.array([0, 1]), low_share=0.25,
                                  horizon=10.0)
        wl = _workload((10.0, 0.0), (10.0, 0.0))
        return FaultInjector(wl, _platform(), compiled, allocate=base,
                             log=EventLog())

    def test_background_capped_at_share(self):
        inj = self._injector(
            lambda now, a, s, p_: (np.array([2.0, 2.0]), np.ones(2)))
        procs, _ = inj.allocate(0.0, np.array([True, True]),
                                np.zeros(2), np.array([10.0, 10.0]))
        assert procs[0] == pytest.approx(3.0)   # fg: (1 - 0.25) * 4
        assert procs[1] == pytest.approx(1.0)   # bg: 0.25 * 4

    def test_floor_granted_even_when_policy_gives_zero(self):
        # an fcfs-style base gives everything to the foreground head;
        # the cap still carves out the background floor.
        inj = self._injector(
            lambda now, a, s, p_: (np.array([4.0, 0.0]), np.ones(2)))
        procs, _ = inj.allocate(0.0, np.array([True, True]),
                                np.zeros(2), np.array([10.0, 10.0]))
        assert procs[1] == pytest.approx(1.0)

    def test_no_cap_when_one_class_absent(self):
        inj = self._injector(
            lambda now, a, s, p_: (np.array([4.0, 0.0]), np.ones(2)))
        procs, _ = inj.allocate(0.0, np.array([True, False]),
                                np.zeros(2), np.array([10.0, 10.0]))
        assert procs[0] == pytest.approx(4.0)
        assert procs[1] == 0.0
