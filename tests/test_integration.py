"""Cross-module integration tests: model vs simulation, traces to schedules.

The paper's claims themselves are checked in test_paper_claims.py.
"""

from __future__ import annotations

import numpy as np

from repro.core import get_scheduler
from repro.machine import taihulight
from repro.simulate import validate_schedule
from repro.workloads import npb_synth


class TestModelSimulationAgreement:
    def test_every_paper_strategy_simulates_correctly(self):
        pf = taihulight()
        wl = npb_synth(32, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        for name in ("dominant-minratio", "dominant-maxratio", "dominant-random",
                      "dominantrev-minratio", "dominantrev-maxratio",
                      "dominantrev-random", "fair", "0cache", "randompart"):
            sched = get_scheduler(name)(wl, pf, rng)
            assert validate_schedule(sched).agrees, name


class TestEndToEndPipeline:
    def test_trace_to_schedule(self):
        """Full path: synthetic traces -> profiling -> co-schedule."""
        from repro.cachesim import profile_application, zipf_stream
        from repro.core import Workload
        from repro.machine import xeon_e5_2690

        rng = np.random.default_rng(0)
        apps = []
        for i, skew in enumerate((1.1, 1.3, 1.6)):
            trace = zipf_stream(60_000, 40_000, rng, skew=skew)
            app, _, _ = profile_application(
                f"kern{i}", trace, work=float(10 ** (9 + i)),
                operations_per_access=2.0, seq_fraction=0.05,
            )
            apps.append(app)
        wl = Workload(apps)
        pf = xeon_e5_2690()
        dom = get_scheduler("dominant-minratio")(wl, pf, None)
        apc = get_scheduler("allproccache")(wl, pf, None)
        assert dom.is_feasible()
        assert dom.makespan() < apc.makespan()
