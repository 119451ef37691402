"""Cadence scraper: tick exactness, budgets, and row output."""

from __future__ import annotations

import numpy as np
import pytest

from repro.chaos import PROBE_COLUMNS, ProbeSample, ProbeTimeline, run_chaos
from repro.types import ModelError

from .test_scenarios import SCENARIOS, _build, _load


def _sample(t: float) -> ProbeSample:
    return ProbeSample(
        time=t, pool=4.0, arrived=1, active=1, running=1, down=0,
        finished=0, procs_in_use=4.0, queue_depth=0, work_done=t,
        work_remaining=10.0 - t, class_procs=(4.0,), class_active=(1,),
        class_mean_flow=(0.0,))


class TestValidation:
    def test_bad_interval(self):
        with pytest.raises(ModelError, match="interval"):
            ProbeTimeline(0.0)
        with pytest.raises(ModelError, match="interval"):
            ProbeTimeline(-1.0)

    def test_bad_budget(self):
        with pytest.raises(ModelError, match="max_samples"):
            ProbeTimeline(1.0, max_samples=0)


class TestCadence:
    def test_samples_stamped_at_tick_times(self):
        probe = ProbeTimeline(0.25)
        probe.poll(0.95, _sample)
        assert [s.time for s in probe] == [0.0, 0.25, 0.5, 0.75]
        assert probe.next_tick() == 1.0

    def test_poll_is_idempotent_within_a_tick(self):
        probe = ProbeTimeline(1.0)
        probe.poll(0.5, _sample)
        probe.poll(0.9, _sample)
        assert [s.time for s in probe] == [0.0]

    def test_boundary_tick_is_tolerant(self):
        probe = ProbeTimeline(1.0)
        probe.poll(1.0 - 1e-13, _sample)  # within canonical tolerance
        assert [s.time for s in probe] == [0.0, 1.0]

    def test_budget_stops_scraping(self):
        probe = ProbeTimeline(1.0, max_samples=3)
        probe.poll(100.0, _sample)
        assert len(probe) == 3
        assert probe.next_tick() == float("inf")

    def test_force_appends_final_sample_once(self):
        probe = ProbeTimeline(1.0, max_samples=2)
        probe.poll(10.0, _sample)
        probe.force(10.0, _sample)
        probe.force(10.0, _sample)  # duplicate instant: skipped
        assert [s.time for s in probe] == [0.0, 1.0, 10.0]


class TestRows:
    def test_rows_match_columns(self):
        probe = ProbeTimeline(1.0)
        probe.poll(2.0, _sample)
        rows = probe.as_rows()
        assert len(rows) == 3
        assert all(len(row) == len(PROBE_COLUMNS) for row in rows)
        assert PROBE_COLUMNS[0] == "time"
        assert rows[-1][0] == 2.0

    def test_rows_are_plain_tuples(self):
        probe = ProbeTimeline(1.0)
        probe.poll(0.0, _sample)
        (row,) = probe.as_rows()
        assert isinstance(row, tuple)
        assert row == _sample(0.0).as_row()


class TestObserverEffect:
    """Probe ticks are reallocation points.

    Every tick stops the kernel, and the policy re-decides there.  A
    ``fair`` or ``fcfs`` decision reads the active set alone, so extra
    stops only split the clock's accumulation: finish times agree to
    rounding whatever the cadence.  (``dominant`` and the registry
    policies re-solve from the remaining work at every stop, so their
    results do depend on the cadence.)
    """

    @pytest.mark.parametrize("policy", ["fair", "fcfs"])
    @pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
    def test_active_set_policies_ignore_the_cadence(self, path, policy):
        workload, platform, arrivals, horizon, compiled = _build(_load(path))
        finish = [
            run_chaos(workload, platform, arrivals, faults=compiled,
                      policy=policy, horizon=horizon,
                      probe_interval=horizon / ticks).finish_times
            for ticks in (64, 128, 512)]
        for other in (finish[0], finish[2]):
            np.testing.assert_allclose(other, finish[1], rtol=1e-12, atol=0)
