"""Ablation: the future-work extensions vs DominantMinRatio.

speedup-aware (KKT fixed point) and continuous-opt (SLSQP) should tie
with each other and never lose to the Theorem-3 allocation; local
search never loses to its greedy start.  Gains grow with the spread of
sequential fractions.
"""

import numpy as np

from repro.core import get_scheduler
from repro.experiments.tables import format_table
from repro.machine import taihulight
from repro.workloads import npb_synth


def test_extensions(benchmark):
    pf = taihulight()
    names = ("dominant-minratio", "speedup-aware", "localsearch", "continuous-opt")
    box = {}

    def run():
        rows = []
        for label, seq_range in [("s in [0.01, 0.15]", (0.01, 0.15)),
                                 ("s in [0, 0.4]", (0.0, 0.4))]:
            sums = {n: 0.0 for n in names}
            for seed in range(6):
                wl = npb_synth(16, np.random.default_rng(seed),
                               seq_range=seq_range)
                base = None
                for n in names:
                    span = get_scheduler(n)(wl, pf, np.random.default_rng(1)).makespan()
                    if base is None:
                        base = span
                    sums[n] += span / base
            rows.append([label] + [sums[n] / 6 for n in names])
        box["rows"] = rows

    benchmark.pedantic(run, iterations=1, rounds=1)
    print()
    print("Extensions vs DominantMinRatio (normalized makespan, 16 apps)")
    print(format_table(["workload"] + list(names), box["rows"]))
    for row in box["rows"]:
        assert row[2] <= 1.0 + 1e-9   # speedup-aware never worse
        assert row[3] <= 1.0 + 1e-9   # localsearch never worse
        assert row[4] <= 1.0 + 1e-9   # continuous never worse
