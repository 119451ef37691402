"""Tests for the online arrival engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Application, Workload, get_entry, get_scheduler, scheduler_names
from repro.machine import taihulight
from repro.online import simulate_online
from repro.simulate import simulate_schedule
from repro.types import ModelError
from repro.workloads import npb_synth, random_workload


@pytest.fixture
def pf():
    return taihulight()


@pytest.fixture
def wl(rng):
    return npb_synth(10, rng)


class TestBatchArrivals:
    def test_dominant_matches_offline(self, wl, pf):
        """Everyone at t=0: the online dominant policy reproduces the
        offline heuristic's makespan (tiny improvement allowed - it may
        re-equalize at phase boundaries)."""
        res = simulate_online(wl, pf, np.zeros(10), policy="dominant")
        off = get_scheduler("dominant-minratio")(wl, pf, None).makespan()
        assert res.makespan == pytest.approx(off, rel=1e-3)
        assert res.makespan <= off * (1 + 1e-9)

    def test_fcfs_matches_allproccache(self, wl, pf):
        res = simulate_online(wl, pf, np.zeros(10), policy="fcfs")
        apc = get_scheduler("allproccache")(wl, pf, None).makespan()
        assert res.makespan == pytest.approx(apc, rel=1e-9)

    def test_flow_equals_finish_at_zero_arrivals(self, wl, pf):
        res = simulate_online(wl, pf, np.zeros(10), policy="fair")
        assert np.allclose(res.flow_times, res.finish_times)


class TestIdenticalArrivals:
    """Every application arrives at the same (possibly nonzero) instant.

    Simultaneous arrivals exercise the event loop's tie handling: one
    arrival event must admit the whole cohort, not one app per event.
    """

    def test_shifted_cohort_matches_offline_plus_offset(self, wl, pf):
        """Arrivals all at t0 > 0: the machine idles to t0, then the
        run is exactly the all-at-zero one shifted by t0."""
        t0 = 1e9
        shifted = simulate_online(wl, pf, np.full(10, t0), policy="dominant")
        base = simulate_online(wl, pf, np.zeros(10), policy="dominant")
        assert np.allclose(shifted.finish_times, base.finish_times + t0,
                           rtol=1e-9)
        assert shifted.makespan == pytest.approx(base.makespan + t0, rel=1e-9)

    def test_flow_times_unchanged_by_shift(self, wl, pf):
        t0 = 3.7e8
        shifted = simulate_online(wl, pf, np.full(10, t0), policy="fair")
        base = simulate_online(wl, pf, np.zeros(10), policy="fair")
        assert np.allclose(shifted.flow_times, base.flow_times, rtol=1e-9)

    def test_single_arrival_event_admits_whole_cohort(self, wl, pf):
        """One arrival event admits the whole simultaneous cohort: the
        shifted run costs exactly as many events as the t=0 run (both
        spend one admission step), not one event per application."""
        t0 = 1e9
        base = simulate_online(wl, pf, np.zeros(10), policy="dominant")
        shifted = simulate_online(wl, pf, np.full(10, t0), policy="dominant")
        assert shifted.events == base.events
        assert shifted.events < 2 * 10  # far below one event per app pair

    def test_fcfs_ties_broken_by_index(self, pf, rng):
        """With identical arrivals the fcfs order falls back to input
        order (stable argsort), so completion order is index order."""
        wl = npb_synth(5, rng)
        res = simulate_online(wl, pf, np.full(5, 1e8), policy="fcfs")
        order = np.argsort(res.finish_times)
        assert list(order) == list(range(5))

    @pytest.mark.parametrize("policy", ["dominant", "fair", "fcfs",
                                        "dominant-minratio"])
    def test_all_policies_complete_identical_arrivals(self, wl, pf, policy):
        res = simulate_online(wl, pf, np.full(10, 5e8), policy=policy)
        assert np.all(res.finish_times > res.arrival_times)
        assert res.makespan > 5e8

    def test_two_simultaneous_waves(self, pf, rng):
        """Two cohorts, each internally simultaneous."""
        wl = npb_synth(8, rng)
        arrivals = np.array([0.0] * 4 + [1e9] * 4)
        res = simulate_online(wl, pf, arrivals, policy="dominant")
        assert np.all(res.finish_times > res.arrival_times)
        # the late wave cannot finish before it arrives
        assert np.all(res.finish_times[4:] > 1e9)


class TestStaggeredArrivals:
    @pytest.fixture
    def arrivals(self, wl, pf):
        base = get_scheduler("dominant-minratio")(wl, pf, None).makespan()
        rng = np.random.default_rng(3)
        return np.sort(rng.uniform(0, base, size=10))

    def test_finish_after_arrival(self, wl, pf, arrivals):
        for policy in ("dominant", "fair", "fcfs"):
            res = simulate_online(wl, pf, arrivals, policy=policy)
            assert np.all(res.finish_times > res.arrival_times)

    def test_dominant_beats_fcfs_makespan(self, wl, pf, arrivals):
        dom = simulate_online(wl, pf, arrivals, policy="dominant")
        fcfs = simulate_online(wl, pf, arrivals, policy="fcfs")
        assert dom.makespan < fcfs.makespan

    def test_fair_sharing_helps_flow_time(self, wl, pf, arrivals):
        """Documented finding: Lemma 1's equal-finish property is an
        *offline* makespan principle; applied naively online it ties
        short jobs to long ones, so Fair wins on mean flow."""
        dom = simulate_online(wl, pf, arrivals, policy="dominant")
        fair = simulate_online(wl, pf, arrivals, policy="fair")
        assert fair.mean_flow < dom.mean_flow

    def test_late_arrival_idles_machine(self, pf, rng):
        wl = npb_synth(2, rng)
        solo = simulate_online(wl[:1], pf, np.zeros(1), policy="dominant")
        gap = 2 * solo.makespan
        res = simulate_online(wl, pf, np.array([0.0, gap]), policy="dominant")
        # second app starts only at its arrival
        assert res.finish_times[1] > gap

    def test_event_budget(self, wl, pf, arrivals):
        with pytest.raises(ModelError):
            simulate_online(wl, pf, arrivals, policy="dominant", max_events=2)

    def test_unknown_policy(self, wl, pf):
        with pytest.raises(ModelError):
            simulate_online(wl, pf, np.zeros(10), policy="lifo")

    def test_shape_validation(self, wl, pf):
        with pytest.raises(ModelError):
            simulate_online(wl, pf, np.zeros(3))
        with pytest.raises(ModelError):
            simulate_online(wl, pf, -np.ones(10))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_arrivals_rejected(self, pf, bad):
        wl = npb_synth(4, np.random.default_rng(0))
        arrivals = [0.0, bad, 1e9, 2e9]
        with pytest.raises(ModelError, match=r"arrival times must be finite, got \[(nan|inf)\]"):
            simulate_online(wl, pf, arrivals, policy="fair")


class TestArrivalAdmission:
    """The kernel's combined abs+rel admission tolerance.

    The historical check was relative-only (``arrivals <= now * (1 +
    eps)``): it admitted nothing early at ``now == 0`` except by the
    accident of a ``+ 1e-300`` term, and drifted at large ``now``.
    """

    def test_arrival_coinciding_with_completion(self, pf):
        """Regression: an arrival at *exactly* a completion instant is
        admitted at that event, not stranded until a later one."""
        wl = Workload([
            Application(name="a", work=1e9, access_freq=0.5, miss_rate=0.01),
            Application(name="b", work=2e9, access_freq=0.8, miss_rate=0.005),
        ])
        solo = simulate_online(wl[:1], pf, np.zeros(1), policy="fair")
        t_done = float(solo.finish_times[0])
        res = simulate_online(wl, pf, np.array([0.0, t_done]), policy="fair")
        # app 0's run is undisturbed...
        assert res.finish_times[0] == pytest.approx(t_done, rel=1e-12)
        # ...and app 1 starts the moment app 0 completes: its flow time
        # equals its solo whole-machine time, with no idle gap.
        solo_b = simulate_online(wl[1:], pf, np.zeros(1), policy="fair")
        assert res.finish_times[1] - t_done == pytest.approx(
            float(solo_b.finish_times[0]), rel=1e-9)
        # the coinciding arrival is admitted inside the completion
        # event itself: admit-a, run-a (admits b at a's completion),
        # run-b — no fourth event for a separate arrival segment
        assert res.events == 3

    def test_admission_at_time_zero_has_absolute_floor(self, pf, rng):
        """An arrival within the absolute tolerance of t=0 joins the
        t=0 cohort (the relative-only check degenerated here)."""
        wl = npb_synth(2, rng)
        res = simulate_online(wl, pf, np.array([0.0, 1e-13]), policy="fair")
        base = simulate_online(wl, pf, np.zeros(2), policy="fair")
        assert np.allclose(res.finish_times, base.finish_times, rtol=1e-9)
        assert res.events == base.events

    def test_late_arrival_not_over_admitted(self, pf, rng):
        """An arrival clearly beyond the tolerance window of the first
        completion is not admitted early: it still starts at its own
        arrival instant."""
        wl = npb_synth(2, rng)
        solo = simulate_online(wl[:1], pf, np.zeros(1), policy="dominant")
        t_done = float(solo.finish_times[0])
        late = t_done * (1 + 1e-6)
        res = simulate_online(wl, pf, np.array([0.0, late]), policy="dominant")
        assert res.finish_times[1] > late


class TestOfflineEquivalenceProperty:
    """All arrivals at t=0: the online loop against the offline model."""

    @pytest.mark.parametrize("seed", range(3))
    def test_every_registered_concurrent_scheduler(self, pf, seed):
        """Property sweep: online-at-zero never finishes any app later
        than the static offline schedule (re-solving the shrinking
        instance only helps), and equal-finish strategies reproduce
        the offline finish times themselves."""
        rng = np.random.default_rng(seed)
        wl = (npb_synth if seed % 2 else random_workload)(6, rng)
        zeros = np.zeros(6)
        checked = 0
        for name in scheduler_names():
            entry = get_entry(name)
            schedule = entry(wl, pf, np.random.default_rng(seed))
            if not schedule.concurrent or entry.randomized:
                continue
            off = simulate_schedule(schedule).finish_times
            on = simulate_online(wl, pf, zeros, policy=name).finish_times
            assert np.all(on <= off * (1 + 1e-9)), name
            times = schedule.times()
            if np.ptp(times) <= 1e-9 * times.max():  # equal-finish
                assert np.allclose(on, off, rtol=1e-3), name
            checked += 1
        assert checked >= 8  # the sweep actually covered the registry

    def test_fair_policy_zero_frequency_workload(self, pf):
        """No application accesses memory: the fair cache split falls
        back to 1/n and the run completes (regression for the
        zero-total-frequency branch)."""
        wl = Workload([
            Application(name=f"cpu{i}", work=(i + 1) * 1e9, access_freq=0.0,
                        miss_rate=0.0)
            for i in range(4)
        ])
        res = simulate_online(wl, pf, np.zeros(4), policy="fair")
        assert np.all(res.finish_times > 0)
        # freq 0 means factor 1; fair re-splits p over the survivors at
        # each completion, so the finishes cascade in work order
        expected = []
        t = prev = 0.0
        for k, w in enumerate(np.sort(wl.work)):
            t += (w - prev) / (pf.p / (4 - k))
            prev = w
            expected.append(t)
        assert np.allclose(res.finish_times, expected, rtol=1e-9)


class TestRegistryPolicies:
    """Any registered concurrent scheduler can drive the online loop."""

    def test_registry_dominant_close_to_builtin(self, wl, pf):
        reg = simulate_online(wl, pf, np.zeros(10), policy="dominant-minratio")
        builtin = simulate_online(wl, pf, np.zeros(10), policy="dominant")
        assert reg.makespan == pytest.approx(builtin.makespan, rel=1e-3)

    def test_randomized_policy_uses_rng(self, wl, pf):
        a = simulate_online(wl, pf, np.zeros(10), policy="randompart",
                            rng=np.random.default_rng(1))
        b = simulate_online(wl, pf, np.zeros(10), policy="randompart",
                            rng=np.random.default_rng(2))
        assert a.makespan != b.makespan

    def test_staggered_arrivals_complete(self, wl, pf):
        arrivals = np.linspace(0.0, 1e10, 10)
        res = simulate_online(wl, pf, arrivals, policy="dominant-maxratio")
        assert np.all(res.finish_times > res.arrival_times)

    def test_sequential_policy_rejected(self, wl, pf):
        with pytest.raises(ModelError):
            simulate_online(wl, pf, np.zeros(10), policy="allproccache")

    def test_unknown_policy_error_names_builtins(self, wl, pf):
        with pytest.raises(ModelError, match="dominant, fair, fcfs"):
            simulate_online(wl, pf, np.zeros(10), policy="dominannt")


class TestPublicTimelines:
    """OnlineResult exposes the kernel's usage timeline and event log."""

    def test_processor_usage_and_log(self, wl, pf):
        arrivals = np.linspace(0.0, 1e10, 10)
        res = simulate_online(wl, pf, arrivals, policy="dominant")
        assert res.processor_usage, "usage timeline must be populated"
        times = [t for t, _ in res.processor_usage]
        assert times == sorted(times)
        assert res.peak_processors <= pf.p * (1 + 1e-9)
        assert res.peak_processors == max(u for _, u in res.processor_usage)
        assert len(res.log.select("done")) == 10
        assert len(res.log.select("arrival")) == 10

    def test_work_conserving_policies_use_whole_machine(self, wl, pf):
        res = simulate_online(wl, pf, np.zeros(10), policy="fair")
        # the kernel takes one bootstrap sample before admitting the
        # t=0 arrivals; from then on every allocation uses the machine
        first, rest = res.processor_usage[0], res.processor_usage[1:]
        assert first == (0.0, 0.0)
        assert rest and all(u == pytest.approx(pf.p) for _, u in rest)

    def test_empty_result_peak_is_zero(self):
        from repro.online.engine import OnlineResult
        res = OnlineResult(arrival_times=np.zeros(1), finish_times=np.ones(1),
                           events=0, policy="x")
        assert res.peak_processors == 0.0
