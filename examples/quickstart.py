#!/usr/bin/env python
"""Quickstart: co-schedule a workload on a cache-partitioned node.

Builds the paper's NPB-SYNTH workload, runs every scheduling strategy,
and prints the allocation chosen by the best one.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import get_scheduler, scheduler_names
from repro.machine import taihulight
from repro.workloads import npb_synth


def main() -> None:
    rng = np.random.default_rng(42)

    # A TaihuLight-like node: 256 processors sharing a 32 GB LLC.
    platform = taihulight()

    # 32 synthetic applications built from measured NPB profiles:
    # work uniform in [1e8, 1e12] ops, sequential fraction in [1%, 15%].
    workload = npb_synth(32, rng)

    print(f"platform: p={platform.p:g} processors, "
          f"LLC={platform.cache_size / 1e9:g} GB, "
          f"ls={platform.latency_cache}, ll={platform.latency_memory}\n")

    print(f"{'strategy':<22}{'makespan':>14}{'vs AllProcCache':>18}")
    reference = get_scheduler("allproccache")(workload, platform, None).makespan()
    results = {}
    for name in sorted(scheduler_names()):
        schedule = get_scheduler(name)(workload, platform, np.random.default_rng(7))
        results[name] = schedule
        span = schedule.makespan()
        print(f"{name:<22}{span:>14.4e}{span / reference:>17.3f}x")

    best_name = min(results, key=lambda n: results[n].makespan())
    print(f"\nbest strategy: {best_name}")
    print()
    print(results[best_name].describe())


if __name__ == "__main__":
    main()
