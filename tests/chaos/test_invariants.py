"""The behavioral contract under churn: every policy, plus the
detector's own sensitivity to violations."""

from __future__ import annotations

import numpy as np
import pytest

from repro.chaos import (
    ChaosResult,
    CompiledFaults,
    ProbeSample,
    ProbeTimeline,
    check_invariants,
    run_chaos,
)
from repro.core.registry import scheduler_names
from repro.online import OnlineResult, simulate_online
from repro.simulate.kernel import EventLog
from repro.types import ModelError

from .conftest import STRESS_SPEC

ALL_POLICIES = ("dominant", "fair", "fcfs") + tuple(
    name for name in scheduler_names() if name not in ("dominant", "fair"))


@pytest.mark.parametrize("policy", ALL_POLICIES)
def test_every_policy_survives_the_stress_scenario(
        policy, chaos_workload, chaos_platform, chaos_arrivals):
    """Acceptance bar: every registered online policy completes a
    seeded churn+crash+preempt+classes scenario with the invariants
    holding."""
    try:
        result = run_chaos(
            chaos_workload, chaos_platform, chaos_arrivals,
            faults=STRESS_SPEC, policy=policy,
            fault_rng=np.random.default_rng(3),
            rng=np.random.default_rng(5))
    except ModelError as exc:
        if "sequential" in str(exc):
            pytest.skip(f"{policy} is a sequential (batch) scheduler")
        raise
    report = check_invariants(result)
    report.assert_ok()
    assert report.checked > 50
    assert np.all(np.isfinite(result.finish_times))
    # the stress spec actually bites in this scenario
    assert result.crashes + result.preemptions > 0
    assert len(result.pool_timeline) > 1


def test_clean_run_checks_out(chaos_workload, chaos_platform, chaos_arrivals):
    result = run_chaos(chaos_workload, chaos_platform, chaos_arrivals,
                       faults="none", policy="fair")
    report = check_invariants(result)
    report.assert_ok()
    assert result.crashes == result.preemptions == 0
    assert result.pool_timeline == [(0.0, chaos_platform.p)]


def test_chaos_result_is_an_online_result(
        chaos_workload, chaos_platform, chaos_arrivals):
    result = run_chaos(chaos_workload, chaos_platform, chaos_arrivals,
                       faults=STRESS_SPEC, policy="dominant",
                       fault_rng=np.random.default_rng(3))
    assert isinstance(result, OnlineResult)
    np.testing.assert_array_equal(
        result.flow_times, result.finish_times - result.arrival_times)
    assert result.makespan == result.finish_times.max()
    assert result.peak_processors == max(u for _, u in result.processor_usage)


@pytest.mark.parametrize("bad", ["shape", "negative"])
def test_bad_arrivals_rejected_like_simulate_online(
        bad, chaos_workload, chaos_platform):
    n = chaos_workload.n
    arrivals = np.zeros(n - 1) if bad == "shape" else -np.ones(n)
    with pytest.raises(ModelError) as chaos_error:
        run_chaos(chaos_workload, chaos_platform, arrivals)
    with pytest.raises(ModelError) as online_error:
        simulate_online(chaos_workload, chaos_platform, arrivals)
    assert str(chaos_error.value) == str(online_error.value)


def _fake_result(*, usage, samples, classes=None, low_share=0.0,
                 finish=(5.0,), arrivals=(0.0,)):
    probe = ProbeTimeline(1.0)
    probe.samples.extend(samples)
    return ChaosResult(
        policy="fake",
        faults=CompiledFaults(
            classes=None if classes is None else np.asarray(classes),
            low_share=low_share, horizon=10.0),
        arrival_times=np.asarray(arrivals, dtype=float),
        finish_times=np.asarray(finish, dtype=float),
        events=1, log=EventLog(), processor_usage=list(usage),
        probe=probe, pool_timeline=[(0.0, 4.0)], total_work=1.0)


def _sample(**over) -> ProbeSample:
    base = dict(time=0.0, pool=4.0, arrived=1, active=1, running=1,
                down=0, finished=0, procs_in_use=4.0, queue_depth=0,
                work_done=0.0, work_remaining=1.0, class_procs=(4.0,),
                class_active=(1,), class_mean_flow=(0.0,))
    base.update(over)
    return ProbeSample(**base)


def _final(t=5.0) -> ProbeSample:
    return _sample(time=t, active=0, running=0, finished=1,
                   procs_in_use=0.0, work_remaining=0.0)


class TestDetection:
    def test_clean_synthetic_passes(self):
        report = check_invariants(_fake_result(
            usage=[(0.0, 4.0)], samples=[_sample(), _final()]))
        assert report.ok and report.checked > 0

    def test_pool_ceiling_violation(self):
        report = check_invariants(_fake_result(
            usage=[(0.0, 10.0)], samples=[_final()]))
        assert any("exceeds the instantaneous pool" in f
                   for f in report.failures)

    def test_work_conservation_violation(self):
        report = check_invariants(_fake_result(
            usage=[(0.0, 2.0)],
            samples=[_sample(procs_in_use=2.0), _final()]))
        assert any("not work-conserving" in f for f in report.failures)

    def test_starvation_violation(self):
        starved = _sample(active=2, running=2, class_procs=(4.0, 0.0),
                          class_active=(1, 1))
        report = check_invariants(_fake_result(
            usage=[(0.0, 4.0)], samples=[starved, _final()],
            classes=[0, 1], low_share=0.25))
        assert any("no-starvation floor" in f for f in report.failures)

    def test_starvation_floor_skipped_while_someone_is_down(self):
        outage = _sample(active=2, running=1, down=1,
                         class_procs=(4.0, 0.0), class_active=(1, 1))
        report = check_invariants(_fake_result(
            usage=[(0.0, 4.0)], samples=[outage, _final()],
            classes=[0, 1], low_share=0.25))
        assert report.ok

    def test_unfinished_application(self):
        report = check_invariants(_fake_result(
            usage=[(0.0, 4.0)], samples=[_final()],
            finish=(np.inf,)))
        assert any("never finished" in f for f in report.failures)

    def test_finish_before_arrival(self):
        report = check_invariants(_fake_result(
            usage=[(0.0, 4.0)], samples=[_final()],
            finish=(1.0,), arrivals=(2.0,)))
        assert any("before" in f for f in report.failures)

    def test_outstanding_work_in_final_sample(self):
        report = check_invariants(_fake_result(
            usage=[(0.0, 4.0)],
            samples=[_final(t=4.0), _sample(time=5.0, running=0,
                                            procs_in_use=0.0,
                                            work_remaining=0.5)]))
        assert any("outstanding" in f for f in report.failures)
