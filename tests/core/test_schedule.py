"""Tests for Schedule and SequentialSchedule."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Schedule, SequentialSchedule
from repro.core.execution import execution_times
from repro.types import InfeasibleScheduleError, ModelError


class TestSchedule:
    def test_times_match_model(self, two_apps, tiny_platform):
        procs = np.array([1.0, 3.0])
        cache = np.array([0.4, 0.6])
        s = Schedule(two_apps, tiny_platform, procs, cache)
        expected = execution_times(two_apps, tiny_platform, procs, cache)
        assert np.allclose(s.times(), expected)
        assert s.makespan() == pytest.approx(expected.max())

    def test_concurrent_flag(self, two_apps, tiny_platform):
        s = Schedule(two_apps, tiny_platform, [1.0, 1.0], [0.0, 0.0])
        assert s.concurrent

    def test_feasibility_procs_budget(self, two_apps, tiny_platform):
        with pytest.raises(InfeasibleScheduleError):
            Schedule(two_apps, tiny_platform, [3.0, 3.0], [0.0, 0.0])

    def test_feasibility_cache_budget(self, two_apps, tiny_platform):
        with pytest.raises(InfeasibleScheduleError):
            Schedule(two_apps, tiny_platform, [1.0, 1.0], [0.6, 0.6])

    def test_feasibility_nonpositive_procs(self, two_apps, tiny_platform):
        with pytest.raises(InfeasibleScheduleError):
            Schedule(two_apps, tiny_platform, [0.0, 1.0], [0.0, 0.0])

    def test_feasibility_cache_out_of_range(self, two_apps, tiny_platform):
        with pytest.raises(InfeasibleScheduleError):
            Schedule(two_apps, tiny_platform, [1.0, 1.0], [-0.1, 0.5])

    def test_validate_false_skips_check(self, two_apps, tiny_platform):
        s = Schedule(two_apps, tiny_platform, [3.0, 3.0], [0.0, 0.0], validate=False)
        assert not s.is_feasible()
        assert s.feasibility_violations()

    def test_shape_validation(self, two_apps, tiny_platform):
        with pytest.raises(ModelError):
            Schedule(two_apps, tiny_platform, [1.0], [0.0, 0.0])
        with pytest.raises(ModelError):
            Schedule(two_apps, tiny_platform, [1.0, 1.0], [0.0])

    def test_cache_subset_mask(self, two_apps, tiny_platform):
        s = Schedule(two_apps, tiny_platform, [1.0, 1.0], [0.5, 0.0])
        assert s.cache_subset.tolist() == [True, False]

    def test_finish_time_spread_zero_when_equal(self, two_apps, tiny_platform):
        """Proportional allocation equalizes perfectly parallel finish times."""
        from repro.core.execution import sequential_times

        c = sequential_times(two_apps, tiny_platform, np.zeros(2))
        procs = tiny_platform.p * c / c.sum()
        s = Schedule(two_apps, tiny_platform, procs, np.zeros(2))
        assert s.finish_time_spread() < 1e-12

    def test_describe_contains_apps(self, two_apps, tiny_platform):
        s = Schedule(two_apps, tiny_platform, [1.0, 1.0], [0.0, 0.0])
        text = s.describe()
        assert "A" in text and "B" in text and "makespan" in text

    def test_times_cached(self, two_apps, tiny_platform):
        s = Schedule(two_apps, tiny_platform, [1.0, 1.0], [0.0, 0.0])
        assert s.times() is s.times()

    def test_given_times_are_kept(self, two_apps, tiny_platform):
        s = Schedule(two_apps, tiny_platform, [1.0, 1.0], [0.0, 0.0],
                     times=[3.0, 4.0])
        assert s.times().tolist() == [3.0, 4.0]
        assert s.makespan() == 4.0

    def test_given_times_shape_checked(self, two_apps, tiny_platform):
        with pytest.raises(ModelError, match="times"):
            Schedule(two_apps, tiny_platform, [1.0, 1.0], [0.0, 0.0],
                     times=[3.0])

    def test_given_times_do_not_skip_validation(self, two_apps, tiny_platform):
        with pytest.raises(InfeasibleScheduleError):
            Schedule(two_apps, tiny_platform, [3.0, 3.0], [0.0, 0.0],
                     times=[1.0, 1.0])


class TestSequentialSchedule:
    def test_makespan_is_sum(self, two_apps, tiny_platform):
        s = SequentialSchedule(two_apps, tiny_platform)
        assert s.makespan() == pytest.approx(s.times().sum())
        assert not s.concurrent

    def test_given_times_are_kept(self, two_apps, tiny_platform):
        s = SequentialSchedule(two_apps, tiny_platform, times=[3.0, 4.0])
        assert s.times().tolist() == [3.0, 4.0]
        assert s.makespan() == 7.0
        with pytest.raises(ModelError, match="times"):
            SequentialSchedule(two_apps, tiny_platform, times=[3.0])

    def test_each_app_gets_everything(self, two_apps, tiny_platform):
        s = SequentialSchedule(two_apps, tiny_platform)
        expected = execution_times(
            two_apps, tiny_platform,
            np.full(2, tiny_platform.p), np.ones(2),
        )
        assert np.allclose(s.times(), expected)
