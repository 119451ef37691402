"""Tests for the scheduler registry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    PAPER_BASELINES,
    PAPER_HEURISTICS,
    get_scheduler,
    is_randomized,
    register,
    scheduler_names,
)
from repro.core.execution import execution_times
from repro.machine import taihulight
from repro.types import ModelError
from repro.workloads import random_workload

#: Every strategy ``import repro`` registers: the paper's heuristics and
#: baselines plus the extension package's three.
ALL_SCHEDULERS = ("0cache", "allproccache", "continuous-opt",
                  "dominant-maxratio", "dominant-minratio", "dominant-random",
                  "dominantrev-maxratio", "dominantrev-minratio",
                  "dominantrev-random", "fair", "localsearch", "randompart",
                  "speedup-aware")


class TestRegistry:
    def test_all_paper_strategies_present(self):
        names = set(scheduler_names())
        for name in PAPER_HEURISTICS + PAPER_BASELINES:
            assert name in names

    def test_lookup_case_insensitive(self):
        assert get_scheduler("Fair") is get_scheduler("fair")

    def test_unknown_scheduler(self):
        with pytest.raises(ModelError):
            get_scheduler("nope")

    def test_randomized_flags(self):
        assert is_randomized("randompart")
        assert is_randomized("dominant-random")
        assert not is_randomized("dominant-minratio")
        assert not is_randomized("fair")

    def test_register_duplicate_rejected(self):
        fn = get_scheduler("fair")
        with pytest.raises(ModelError):
            register("fair", fn)

    def test_register_overwrite_allowed(self):
        fn = get_scheduler("fair")
        register("fair", fn, overwrite=True)
        assert get_scheduler("fair") is fn

    def test_register_custom_and_call(self, synth16):
        calls = []

        def custom(wl, pf, rng=None):
            calls.append(wl.n)
            return get_scheduler("0cache")(wl, pf, rng)

        register("test-custom", custom, overwrite=True)
        pf = taihulight()
        s = get_scheduler("test-custom")(synth16, pf, None)
        assert calls == [16]
        assert s.is_feasible()

    def test_every_scheduler_runs(self, synth16):
        """Every registered strategy yields a valid schedule on NPB-SYNTH."""
        pf = taihulight()
        rng = np.random.default_rng(0)
        for name in scheduler_names():
            sched = get_scheduler(name)(synth16, pf, rng)
            assert sched.makespan() > 0, name


class TestSchedulerContract:
    """What every registry entry promises, checked one entry at a time."""

    def test_the_list_is_the_registry(self):
        assert scheduler_names() == ALL_SCHEDULERS

    @pytest.mark.parametrize("name", ALL_SCHEDULERS)
    def test_schedule_is_valid(self, name, synth16):
        pf = taihulight()
        s = get_scheduler(name)(synth16, pf, np.random.default_rng(3))
        assert s.workload is synth16 and s.platform is pf
        np.testing.assert_allclose(
            s.times(), execution_times(synth16, pf, s.procs, s.cache),
            rtol=1e-12)
        if s.concurrent:
            s.assert_feasible()
            assert s.makespan() == float(s.times().max())
        else:
            assert s.makespan() == float(s.times().sum())

    @pytest.mark.parametrize("name", ALL_SCHEDULERS)
    def test_same_seed_same_schedule(self, name, synth16):
        pf = taihulight()
        entry = get_scheduler(name)
        a = entry(synth16, pf, np.random.default_rng(3))
        b = entry(synth16, pf, np.random.default_rng(3))
        assert np.array_equal(a.procs, b.procs)
        assert np.array_equal(a.cache, b.cache)
        assert np.array_equal(a.times(), b.times())

    @pytest.mark.parametrize("name", ALL_SCHEDULERS)
    def test_randomized_flag_matches_behaviour(self, name, tiny_platform):
        """A strategy flagged deterministic ignores ``rng``; a randomized
        one draws from it.  The instance needs a cache small enough
        that the dominant heuristics' random pick changes the subset —
        on TaihuLight's 32 GB LLC every pick order ends in the same one."""
        wl = random_workload(32, np.random.default_rng(1))
        entry = get_scheduler(name)
        a = entry(wl, tiny_platform, np.random.default_rng(3))
        b = entry(wl, tiny_platform, np.random.default_rng(4))
        same = (np.array_equal(a.procs, b.procs)
                and np.array_equal(a.cache, b.cache))
        assert same is not is_randomized(name)
        if not is_randomized(name):
            c = entry(wl, tiny_platform, None)
            assert np.array_equal(a.procs, c.procs)
            assert np.array_equal(a.cache, c.cache)
