"""Golden: the live chaos path replays the frozen per-stop machinery.

:mod:`golden.legacy_chaos` keeps verbatim copies of the fault injector
and the kernel loop, driving the frozen online policies of
:mod:`golden.legacy_engines`.  For every committed chaos scenario, each
of its declared policies plus ``dominant-minratio``, on three seeded
draws of its workload, arrivals and fault stream, :func:`run_chaos`
must reproduce the oracle bit for bit: finish times, the event log,
processor usage, probe rows, the pool history and every fault counter.
The kernel loop is also held to its frozen copy on its own, over
phase exits that coincide with completions, cohorts of arrivals, an
exogenous cadence and work-conserving completion callbacks.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.chaos import parse_fault_spec, run_chaos
from repro.machine.presets import get_preset
from repro.online.arrivals import parse_arrival_spec
from repro.simulate.kernel import run_phase_kernel
from repro.workloads.synthetic import generate

from .legacy_chaos import legacy_run_chaos, legacy_run_phase_kernel

pytestmark = pytest.mark.kernel_equivalence

SCENARIOS = sorted((Path(__file__).parent.parent / "chaos" / "scenarios").glob("*.json"))
SEEDS = range(3)
EXTRA_POLICY = "dominant-minratio"


def _cases():
    for path in SCENARIOS:
        spec = json.loads(path.read_text())
        for policy in (*spec["policies"], EXTRA_POLICY):
            for seed in SEEDS:
                yield pytest.param(spec, policy, seed,
                                   id=f"{path.stem}-{policy}-{seed}")


def _instance(spec, seed):
    """Draw *seed* of the scenario: workload, arrivals, fault spec, fault seed."""
    n = spec["workload"]["n"]
    rng = np.random.default_rng((spec["workload"]["seed"], seed))
    workload = generate(spec["workload"]["dataset"], n, rng)
    arrivals = (parse_arrival_spec(spec["arrivals"]).times(n, rng)
                if spec.get("arrivals") else np.zeros(n))
    return (workload, get_preset(spec["platform"]), arrivals,
            parse_fault_spec(spec["faults"]), (spec["fault_seed"], seed))


@pytest.mark.parametrize("spec, policy, seed", _cases())
def test_chaos_run_bit_identical(spec, policy, seed):
    workload, platform, arrivals, faults, fault_seed = _instance(spec, seed)
    live, ref = (
        run(workload, platform, arrivals, faults=faults, policy=policy,
            fault_rng=np.random.default_rng(fault_seed))
        for run in (run_chaos, legacy_run_chaos))
    assert live.finish_times.tobytes() == ref.finish_times.tobytes()
    assert live.events == ref.events
    assert live.log.as_tuples() == ref.log.as_tuples()
    assert live.processor_usage == ref.processor_usage
    assert live.probe.as_rows() == ref.probe.as_rows()
    assert live.pool_timeline == ref.pool_timeline
    assert (live.crashes, live.preemptions, live.dropped_faults) == (
        ref.crashes, ref.preemptions, ref.dropped_faults)
    assert live.lost_work == ref.lost_work


def _kernel_run(kernel, seed):
    """One seeded kernel run: (result, on_complete calls)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 10))
    work = rng.uniform(1e8, 1e10, n)
    # Wholly sequential applications leave their sequential phase and
    # finish in the same event.
    seq = rng.choice([0.0, 0.05, 0.3, 1.0], n)
    arrivals = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(0.0, 2e9, n))
    arrivals[rng.random(n) < 0.3] = arrivals[0]
    procs = rng.uniform(0.5, 8.0, n)
    factors = rng.uniform(1.0, 3.0, n)
    # Twins of application 0 finish in the same event as it does.
    twins = rng.random(n) < 0.3
    for column in (work, seq, arrivals, procs, factors):
        column[twins] = column[0]
    ticks = np.cumsum(rng.uniform(1e8, 1e9, 64))
    calls = []

    def allocate(now, active, seq_left, par_left):
        return procs, factors

    def on_complete(i, now, alive):
        # Work-conserving: the finisher's processors go to the others.
        calls.append((i, now, alive.tobytes()))
        freed = procs[i]
        procs[i] = 0.0
        share = procs[alive]
        total = float(share.sum())
        if total > 0:
            procs[alive] += freed * share / total

    result = kernel(work, seq * work, (1.0 - seq) * work, allocate=allocate,
                    arrivals=arrivals, on_complete=on_complete,
                    timeline=lambda now: float(np.append(ticks[ticks > now], np.inf)[0]),
                    max_events=1000)
    return result, calls


@pytest.mark.parametrize("seed", range(40))
def test_phase_kernel_bit_identical(seed):
    (live, live_calls), (ref, ref_calls) = (
        _kernel_run(kernel, seed)
        for kernel in (run_phase_kernel, legacy_run_phase_kernel))
    assert live.finish_times.tobytes() == ref.finish_times.tobytes()
    assert (live.events, live.now) == (ref.events, ref.now)
    assert live.log.as_tuples() == ref.log.as_tuples()
    assert live.usage == ref.usage
    assert live_calls == ref_calls
