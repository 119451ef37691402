#!/usr/bin/env python
"""The committed perf trajectory: measure the batch core, write BENCH_pr6.json.

Standalone, stdlib + repro only (no pytest)::

    PYTHONPATH=src python benchmarks/bench_trajectory.py [--out PATH]

Four benches pin the PR's performance story:

* ``scheduler_scalar_b256`` — 256 Fig.-1 instances (NPB-SYNTH, 16
  applications, 256-processor Taihulight LLC) through the scalar
  ``dominant-minratio`` entry, one Python call per instance.  This is
  the denominator every ratio is measured against.
* ``scheduler_batch_b{1,16,256}`` — the same 256 instances through
  :func:`repro.core.schedule_batch` in chunks of 1/16/256, i.e. the
  structure-of-arrays path the experiment engine and the service
  dispatcher use.  ``speedup_vs_scalar`` is the machine-independent
  number the regression gate tracks; the acceptance bar is >= 5x at
  batch 256.
* ``eviction_scan_n256`` — one scalar ``dominant-minratio`` call on a
  single 256-application instance: the vectorized eviction loop
  (previously an O(n^2) rescan per eviction).
* ``phase_kernel_batch_b256`` — the batched static simulation kernel
  against a loop of scalar :func:`repro.simulate.simulate_schedule`
  calls over the same 256 schedules.

The scalar entry is the batch core at ``B = 1`` (one kernel per
computation), so ``scheduler_batch_b1`` measures only what
``schedule_batch`` adds around the same solve and sits near 1.0x by
construction; it is tracked, not gated.

Each bench runs ``REPRO_BENCH_REPS`` rounds (default 5; CI uses 2) on
one pinned CPU and records the best wall time.  Every side of a ratio
is timed in every round, and ``speedup_vs_scalar`` is the median of the
per-round ratios: both sides of one round see the same machine, so a
round in which the machine slows down moves neither the ratio nor the
gate.  Absolute times carry the machine fingerprint; the gate
(``benchmarks/check_trajectory.py``) compares only the speedup ratios.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))
from _harness import BENCH_REPS, REPO_ROOT, write_trajectory  # noqa: E402

import numpy as np  # noqa: E402

from repro.core import BatchProblem, get_scheduler, schedule_batch  # noqa: E402
from repro.core.heuristics import dominant_schedule_batch  # noqa: E402
from repro.machine import taihulight  # noqa: E402
from repro.simulate import simulate_schedule, simulate_schedule_batch  # noqa: E402
from repro.workloads import npb_synth  # noqa: E402

#: The trajectory workload: Fig. 1's dataset and platform at its
#: n = 16 sweep point, replicated into independent seeded instances.
N_INSTANCES = 256
N_APPS = 16
SCHEDULER = "dominant-minratio"
BATCH_SIZES = (1, 16, 256)


def _instances():
    pf = taihulight()
    return [(npb_synth(N_APPS, np.random.default_rng(seed)), pf)
            for seed in range(N_INSTANCES)]


def _interleaved(fns: dict, reps: int) -> dict:
    """Per-round walls per labelled thunk, measured round-robin.

    Interleaving matters for the *ratios*: measuring all scalar reps
    and then all batch reps lets background-load drift land entirely on
    one side and swing speedup_vs_scalar by tens of percent; visiting
    every thunk each round exposes both sides to the same conditions.
    """
    walls = {name: [] for name in fns}
    for _ in range(reps):
        for name, fn in fns.items():
            t0 = perf_counter()
            fn()
            walls[name].append(perf_counter() - t0)
    return walls


def _speedup(scalar: list, batch: list) -> float:
    """Median over rounds of the scalar wall over the batch wall."""
    return statistics.median(s / b for s, b in zip(scalar, batch))


def _pin_one_cpu() -> None:
    """Run this process on one CPU, so no round migrates mid-measurement."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_benches(reps: int) -> dict:
    instances = _instances()
    entry = get_scheduler(SCHEDULER)
    benches: dict[str, dict] = {}

    def scalar_all():
        for wl, pf in instances:
            entry(wl, pf, None)

    def batched(size):
        def run():
            for start in range(0, N_INSTANCES, size):
                schedule_batch(SCHEDULER, instances[start:start + size])
        return run

    timers = {"scalar": scalar_all}
    timers.update({f"b{size}": batched(size) for size in BATCH_SIZES})
    rounds = _interleaved(timers, reps)
    walls = {name: min(w) for name, w in rounds.items()}

    scalar_wall = walls["scalar"]
    scalar_rate = N_INSTANCES / scalar_wall
    benches["scheduler_scalar_b256"] = {
        "backend": "python-loop",
        "batch": 1,
        "instances": N_INSTANCES,
        "wall_s": scalar_wall,
        "instances_per_s": scalar_rate,
    }
    print(f"  scheduler_scalar_b256     {scalar_wall * 1e3:8.1f} ms   "
          f"{scalar_rate:10.0f} inst/s")

    for size in BATCH_SIZES:
        wall = walls[f"b{size}"]
        rate = N_INSTANCES / wall
        speedup = _speedup(rounds["scalar"], rounds[f"b{size}"])
        benches[f"scheduler_batch_b{size}"] = {
            "backend": "numpy-soa",
            "batch": size,
            "instances": N_INSTANCES,
            "wall_s": wall,
            "instances_per_s": rate,
            "speedup_vs_scalar": speedup,
        }
        print(f"  scheduler_batch_b{size:<8d} {wall * 1e3:8.1f} ms   "
              f"{rate:10.0f} inst/s   {speedup:6.2f}x vs scalar")

    big = npb_synth(256, np.random.default_rng(0))
    pf = taihulight()
    wall = min(_interleaved({"n256": lambda: entry(big, pf, None)},
                            reps)["n256"])
    benches["eviction_scan_n256"] = {
        "backend": "numpy",
        "batch": 1,
        "instances": 1,
        "wall_s": wall,
        "instances_per_s": 1.0 / wall,
    }
    print(f"  eviction_scan_n256        {wall * 1e3:8.1f} ms   "
          f"{1.0 / wall:10.0f} inst/s")

    problem = BatchProblem(instances)
    batch_schedule = dominant_schedule_batch(problem)
    schedules = batch_schedule.schedules()

    def simulate_scalar():
        for s in schedules:
            simulate_schedule(s)

    sim = _interleaved({
        "scalar": simulate_scalar,
        "batch": lambda: simulate_schedule_batch(batch_schedule),
    }, reps)
    sim_batch_wall = min(sim["batch"])
    sim_speedup = _speedup(sim["scalar"], sim["batch"])
    benches["phase_kernel_batch_b256"] = {
        "backend": "numpy-soa",
        "batch": N_INSTANCES,
        "instances": N_INSTANCES,
        "wall_s": sim_batch_wall,
        "instances_per_s": N_INSTANCES / sim_batch_wall,
        "speedup_vs_scalar": sim_speedup,
    }
    print(f"  phase_kernel_batch_b256   {sim_batch_wall * 1e3:8.1f} ms   "
          f"{N_INSTANCES / sim_batch_wall:10.0f} inst/s   "
          f"{sim_speedup:6.2f}x vs scalar")
    return benches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path,
                        default=REPO_ROOT / "BENCH_pr6.json",
                        help="where to write the trajectory record")
    parser.add_argument("--reps", type=int, default=BENCH_REPS,
                        help="best-of repetitions per bench "
                             "(default: REPRO_BENCH_REPS or 5)")
    args = parser.parse_args(argv)
    _pin_one_cpu()
    print(f"[trajectory] {N_INSTANCES} instances x {N_APPS} apps, "
          f"{args.reps} interleaved rounds on one CPU", file=sys.stderr)
    benches = run_benches(args.reps)
    write_trajectory(args.out, benches, reps=args.reps)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
