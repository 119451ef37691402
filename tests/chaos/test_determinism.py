"""Determinism contract: same fault seed, same bytes."""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.chaos import run_chaos
from repro.online import simulate_online
from repro.types import ModelError

from .conftest import STRESS_SPEC

_SRC = str(Path(__file__).resolve().parents[2] / "src")

#: One chaos run on the suite's hand-built scenario (see conftest);
#: prints a SHA-256 over its event log, probe rows, finish times and
#: pool timeline.
_PROBE = f"""
import hashlib
import numpy as np
from repro.chaos import run_chaos
from repro.core import Application, Platform, Workload
workload = Workload([
    Application(name=f"a{{i}}", work=1e9 * (1 + i % 3),
                seq_fraction=0.02 * (i % 4), access_freq=0.3 + 0.1 * (i % 5),
                footprint=2 ** 20 * (1 + i))
    for i in range(6)
])
platform = Platform(p=64.0, cache_size=2 ** 25, latency_cache=0.17,
                    latency_memory=1.0, alpha=0.5, name="chaos-64")
result = run_chaos(workload, platform, np.linspace(0.0, 3e8, workload.n),
                   faults={STRESS_SPEC!r}, policy="dominant",
                   fault_rng=np.random.default_rng(42))
digest = hashlib.sha256()
for part in (result.log.as_tuples(), result.probe.as_rows(),
             result.pool_timeline):
    digest.update(repr(part).encode())
digest.update(result.finish_times.tobytes())
print(digest.hexdigest())
"""


def _run(workload, platform, arrivals, **kw):
    return run_chaos(workload, platform, arrivals, faults=STRESS_SPEC,
                     policy=kw.pop("policy", "dominant"),
                     fault_rng=np.random.default_rng(kw.pop("seed", 42)),
                     **kw)


class TestRepeatedRuns:
    def test_same_seed_identical_timelines(
            self, chaos_workload, chaos_platform, chaos_arrivals):
        a = _run(chaos_workload, chaos_platform, chaos_arrivals)
        b = _run(chaos_workload, chaos_platform, chaos_arrivals)
        assert a.log.as_tuples() == b.log.as_tuples()
        assert a.probe.as_rows() == b.probe.as_rows()
        assert np.array_equal(a.finish_times, b.finish_times)
        assert a.pool_timeline == b.pool_timeline

    def test_different_fault_seed_different_run(
            self, chaos_workload, chaos_platform, chaos_arrivals):
        a = _run(chaos_workload, chaos_platform, chaos_arrivals, seed=1)
        b = _run(chaos_workload, chaos_platform, chaos_arrivals, seed=2)
        assert a.log.as_tuples() != b.log.as_tuples()

    def test_identical_stream_across_policies(
            self, chaos_workload, chaos_platform, chaos_arrivals):
        """Two policies under the same fault seed face the same
        compiled stream (the per-cell RNG discipline)."""
        a = _run(chaos_workload, chaos_platform, chaos_arrivals,
                 policy="dominant")
        b = _run(chaos_workload, chaos_platform, chaos_arrivals,
                 policy="fair")
        assert a.faults.events == b.faults.events

    def test_same_seed_identical_across_interpreters(self):
        """A fresh interpreter with another hash seed replays the same
        run: fault streams depend on the seed alone."""
        here = io.StringIO()
        with contextlib.redirect_stdout(here):
            exec(_PROBE, {})
        env = dict(os.environ, PYTHONHASHSEED="2",
                   PYTHONPATH=_SRC + os.pathsep + os.environ.get(
                       "PYTHONPATH", ""))
        proc = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == here.getvalue()
        assert len(proc.stdout.strip()) == 64


class TestCleanRunMatchesOnlineEngine:
    def test_no_faults_reduces_to_simulate_online(
            self, chaos_workload, chaos_platform, chaos_arrivals):
        """With an empty fault stream the injector is a pass-through.

        Probe ticks split the kernel's clock steps, so dt accumulation
        differs at the last-ulp level — tight rtol, not bit equality.
        """
        chaos = run_chaos(chaos_workload, chaos_platform, chaos_arrivals,
                          faults="none", policy="dominant")
        online = simulate_online(chaos_workload, chaos_platform,
                                 chaos_arrivals, policy="dominant")
        np.testing.assert_allclose(chaos.finish_times, online.finish_times,
                                   rtol=1e-9)
        assert chaos.makespan == pytest.approx(online.makespan, rel=1e-9)


class TestArrivalValidation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_arrivals_rejected(self, chaos_workload, chaos_platform,
                                          chaos_arrivals, bad):
        arrivals = chaos_arrivals.copy()
        arrivals[2] = bad
        with pytest.raises(ModelError,
                           match=r"arrival times must be finite, got \[(nan|inf)\]"):
            run_chaos(chaos_workload, chaos_platform, arrivals,
                      faults=STRESS_SPEC, policy="fair")
