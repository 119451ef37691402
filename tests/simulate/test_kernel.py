"""Tests for the shared discrete-event kernel."""

from __future__ import annotations

import numpy as np
import pytest

from repro.simulate.kernel import (
    ABS_TOL,
    EVENT_KINDS,
    REL_TOL,
    Event,
    EventLog,
    at_or_before,
    boundary_tol,
    run_phase_kernel,
)
from repro.types import ModelError


class TestTolerance:
    def test_combined_form(self):
        assert boundary_tol(0.0) == ABS_TOL
        assert boundary_tol(1e9) == ABS_TOL + REL_TOL * 1e9
        assert boundary_tol(-1e9) == boundary_tol(1e9)

    def test_absolute_floor_at_zero(self):
        """The historical relative-only check admitted nothing at
        t == 0; the combined tolerance keeps a floor there."""
        assert at_or_before(ABS_TOL / 2, 0.0)
        assert not at_or_before(10 * ABS_TOL, 0.0)

    def test_relative_part_scales(self):
        t = 1e9
        assert at_or_before(t * (1 + REL_TOL / 2), t)
        assert not at_or_before(t * (1 + 10 * REL_TOL), t)

    def test_vectorized(self):
        values = np.array([0.0, 5e-13, 1.0])
        out = at_or_before(values, 0.0)
        assert list(out) == [True, True, False]

    def test_explicit_scale(self):
        # boundary 0 but magnitudes of order 1e9: rel part applies,
        # tol = ABS + REL * 1e9 ~ 1e-3
        assert at_or_before(5e-4, 0.0, scale=1e9)
        assert not at_or_before(5e-3, 0.0, scale=1e9)


class TestEventLog:
    def test_typed_records(self):
        log = EventLog()
        e = log.record(1.5, "done", 3)
        assert e == Event(1.5, "done", 3)
        assert log.as_tuples() == [(1.5, "done", 3)]

    def test_select_and_filtered_tuples(self):
        log = EventLog()
        log.record(1.0, "seq-done", 0)
        log.record(2.0, "arrival", 1)
        log.record(3.0, "done", 0)
        assert [e.kind for e in log.select("seq-done", "done")] == [
            "seq-done", "done"]
        assert log.as_tuples("arrival") == [(2.0, "arrival", 1)]
        assert len(log) == 3

    def test_unknown_kind_rejected(self):
        with pytest.raises(ModelError):
            EventLog().record(0.0, "meteor", 0)

    def test_select_rejects_unknown_kind(self):
        """A filter naming a kind outside EVENT_KINDS is a typo, not an
        empty result."""
        log = EventLog()
        log.record(1.0, "done", 0)
        with pytest.raises(ModelError, match="unknown event kind"):
            log.select("dne")
        with pytest.raises(ModelError, match="unknown event kind"):
            log.as_tuples("crashh")

    def test_fault_kinds_registered(self):
        """The chaos subsystem's kinds are first-class log citizens."""
        log = EventLog()
        for kind in ("proc_join", "proc_leave", "crash", "restart", "preempt"):
            assert kind in EVENT_KINDS
            log.record(1.0, kind, -1)
        assert [e.kind for e in log.select("crash", "restart")] == [
            "crash", "restart"]
        # Appended after the kernel's own kinds: chaos.faults breaks
        # same-instant ties between fault events by tuple position.
        arrival = EVENT_KINDS.index("arrival")
        for kind in ("proc_join", "proc_leave", "crash", "restart", "preempt"):
            assert EVENT_KINDS.index(kind) > arrival

    def test_since_is_incremental(self):
        log = EventLog()
        log.record(1.0, "done", 0)
        cursor = len(log)
        log.record(2.0, "done", 1)
        assert [e.index for e in log.since(cursor)] == [1]
        assert log.since(len(log)) == []


def _fixed_allocation(procs, factors):
    def allocate(now, active, seq_left, par_left):
        return procs, factors
    return allocate


class TestPhaseKernel:
    def test_single_phase_job(self):
        work = np.array([10.0])
        res = run_phase_kernel(
            work, np.zeros(1), work.copy(),
            allocate=_fixed_allocation(np.array([2.0]), np.array([1.0])),
        )
        # 10 ops at 2 ops/time-unit
        assert res.finish_times[0] == pytest.approx(5.0)
        assert [e.kind for e in res.log] == ["done"]
        assert res.events == 1

    def test_two_phase_job_logs_seq_done(self):
        work = np.array([10.0])
        res = run_phase_kernel(
            work, np.array([4.0]), np.array([6.0]),
            allocate=_fixed_allocation(np.array([3.0]), np.array([1.0])),
        )
        # seq: 4 ops at 1/1; par: 6 ops at 3/1
        assert res.finish_times[0] == pytest.approx(4.0 + 2.0)
        assert [e.kind for e in res.log] == ["seq-done", "done"]
        assert res.log.events[0].time == pytest.approx(4.0)

    def test_arrival_admission_and_idle_jump(self):
        work = np.array([4.0, 4.0])
        res = run_phase_kernel(
            work, np.zeros(2), work.copy(),
            allocate=_fixed_allocation(np.array([1.0, 1.0]), np.ones(2)),
            arrivals=np.array([1.0, 100.0]),
        )
        assert res.finish_times[0] == pytest.approx(5.0)
        assert res.finish_times[1] == pytest.approx(104.0)
        kinds = [e.kind for e in res.log]
        assert kinds == ["arrival", "done", "arrival", "done"]

    def test_stalled_application_waits(self):
        """An active application allocated no processors makes no
        progress (the fcfs convention)."""
        work = np.array([4.0, 4.0])

        def allocate(now, active, seq_left, par_left):
            procs = np.zeros(2)
            procs[int(np.flatnonzero(active)[0])] = 1.0
            return procs, np.ones(2)

        res = run_phase_kernel(work, np.zeros(2), work.copy(),
                               allocate=allocate)
        assert res.finish_times[0] == pytest.approx(4.0)
        assert res.finish_times[1] == pytest.approx(8.0)

    def test_on_complete_hook_sees_survivors(self):
        seen = []
        work = np.array([2.0, 4.0])

        def on_complete(i, now, alive):
            seen.append((i, now, alive.copy()))

        res = run_phase_kernel(
            work, np.zeros(2), work.copy(),
            allocate=_fixed_allocation(np.ones(2), np.ones(2)),
            on_complete=on_complete,
        )
        assert [i for i, _, _ in seen] == [0, 1]
        assert list(seen[0][2]) == [False, True]
        assert list(seen[1][2]) == [False, False]
        assert res.events == 2

    def test_event_budget(self):
        work = np.array([4.0])
        with pytest.raises(ModelError, match="my budget message"):
            run_phase_kernel(
                work, np.zeros(1), work.copy(),
                allocate=_fixed_allocation(np.ones(1), np.ones(1)),
                arrivals=np.array([3.0]),
                max_events=1,
                budget_message="my budget message",
            )

    def test_usage_samples(self):
        work = np.array([2.0, 4.0])
        res = run_phase_kernel(
            work, np.zeros(2), work.copy(),
            allocate=_fixed_allocation(np.array([3.0, 1.0]), np.ones(2)),
        )
        # app 0 (2 ops at rate 3) finishes at 2/3; app 1 runs on alone
        assert res.usage == [(0.0, 4.0), (2.0 / 3.0, 1.0)]

    def test_phase_residue_swallowed(self):
        """A residue below tol(work) is rounding noise, not a phase."""
        work = np.array([1e12])
        seq = np.array([0.3 * 1e12])
        res = run_phase_kernel(
            work, seq, work - seq,
            allocate=_fixed_allocation(np.array([7.0]), np.array([1.3])),
        )
        # exactly one seq-done and one done, no zero-length phantom events
        assert [e.kind for e in res.log] == ["seq-done", "done"]


class TestTimelineHook:
    def test_allocate_runs_at_exogenous_instants(self):
        """The clock never steps across timeline(now) while work is in
        flight, so allocate observes every exogenous breakpoint."""
        breakpoints = iter([3.0, 7.0, np.inf])
        nxt = [3.0]

        def timeline(now):
            while at_or_before(nxt[0], now):
                nxt[0] = next(breakpoints)
            return nxt[0]

        seen = []

        def allocate(now, active, seq_left, par_left):
            seen.append(now)
            return np.array([1.0]), np.array([1.0])

        res = run_phase_kernel(
            np.array([10.0]), np.zeros(1), np.array([10.0]),
            allocate=allocate, timeline=timeline,
        )
        assert res.finish_times[0] == pytest.approx(10.0)
        assert seen[0] == 0.0
        assert 3.0 in [pytest.approx(t) for t in seen]
        assert 7.0 in [pytest.approx(t) for t in seen]

    def test_stall_without_any_advance_raises(self):
        """All-stalled work with no arrival and no exogenous event is a
        modeling error, not a NaN factory."""

        def allocate(now, active, seq_left, par_left):
            return np.zeros(1), np.ones(1)

        with pytest.raises(ModelError, match="stalled"):
            run_phase_kernel(
                np.array([10.0]), np.zeros(1), np.array([10.0]),
                allocate=allocate,
            )

    def test_exogenous_event_unstalls(self):
        """A timeline instant can wake a run that is momentarily
        all-stalled (the chaos injector's crash outages rely on it)."""

        def timeline(now):
            return 5.0 if now < 5.0 else np.inf

        def allocate(now, active, seq_left, par_left):
            if now < 5.0:
                return np.zeros(1), np.ones(1)
            return np.array([1.0]), np.array([1.0])

        res = run_phase_kernel(
            np.array([10.0]), np.zeros(1), np.array([10.0]),
            allocate=allocate, timeline=timeline,
        )
        assert res.finish_times[0] == pytest.approx(15.0)
