#!/usr/bin/env python
"""Resilience sweep: goodput retained vs. fault rate, per policy.

Runs every policy under the *same* compiled churn+crash streams at a
ladder of crash hazards, measures how much goodput each policy retains
relative to its own clean (fault-free) run, asserts the chaos
invariants on every run, and writes the curve into a ``BENCH_pr9.json``
trajectory record (same schema and tooling as the PR 6/7 records —
``check_trajectory.py validate / gate``).

``goodput_retained`` is machine-independent *and* deterministic (the
fault streams are pure functions of the seed), so the trajectory gate
checks it for exact-ish reproduction rather than the wall-time ratios
the perf benches use.

Usage::

    # full sweep, writes BENCH_pr9.json at the repo root
    PYTHONPATH=src python benchmarks/bench_chaos.py

    # smoke mode (fewer hazard points), custom output
    PYTHONPATH=src python benchmarks/bench_chaos.py --smoke --out fresh.json
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _harness import REPO_ROOT, write_trajectory  # noqa: E402

from repro.chaos import check_invariants, estimate_horizon, parse_fault_spec, run_chaos  # noqa: E402
from repro.machine.presets import get_preset  # noqa: E402
from repro.online.arrivals import parse_arrival_spec  # noqa: E402
from repro.workloads.synthetic import generate  # noqa: E402

#: Policies on the curve (>= 2, per the pr9 record contract).
POLICIES = ("dominant", "fair")

#: Crash hazards swept (crashes per application per model time unit).
#: The npb-synth/taihulight scenario spans ~1e11-1e12 time units, so
#: these range from "a few crashes total" to "a crash storm".
FULL_HAZARDS = (1e-12, 5e-12, 1e-11, 2e-11, 4e-11)
SMOKE_HAZARDS = (1e-11, 4e-11)

#: Fixed platform churn layered under every hazard point.
CHURN = "churn:period=2e10,drop=0.25"

NAPPS = 8
ARRIVALS = "poisson:rate=5e-9"
SEED = 2017
PROBE_SAMPLES = 256


def crash_spec(hazard: float) -> str:
    return f"{CHURN}+crash:hazard={hazard:g},delay=1e9"


def build_scenario():
    """Workload, platform, arrivals, horizon — shared by every run."""
    rng = np.random.default_rng(SEED)
    workload = generate("npb-synth", NAPPS, rng)
    platform = get_preset("taihulight")
    arrivals = parse_arrival_spec(ARRIVALS).times(NAPPS, rng)
    horizon = estimate_horizon(workload, platform, arrivals)
    return workload, platform, arrivals, horizon


def run_point(workload, platform, arrivals, horizon, policy, faults):
    """One audited chaos run; returns (result, wall seconds)."""
    t0 = perf_counter()
    result = run_chaos(
        workload, platform, arrivals,
        faults=faults, policy=policy, horizon=horizon,
        max_samples=PROBE_SAMPLES,
    )
    wall = perf_counter() - t0
    report = check_invariants(result)
    if not report.ok:
        sys.exit(f"invariant violation ({policy}):\n  "
                 + "\n  ".join(report.failures))
    return result, wall


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="fewer hazard points (CI-friendly)")
    parser.add_argument("--out", type=Path,
                        default=REPO_ROOT / "BENCH_pr9.json")
    args = parser.parse_args(argv)

    hazards = SMOKE_HAZARDS if args.smoke else FULL_HAZARDS
    workload, platform, arrivals, horizon = build_scenario()

    # Compile each hazard's stream once, from its own fixed seed, and
    # inject the identical stream into every policy, so the policies'
    # curves differ only by policy.
    compiled = {
        hazard: parse_fault_spec(crash_spec(hazard)).compile(
            workload.n, platform.p, horizon,
            np.random.default_rng((SEED, k)))
        for k, hazard in enumerate(hazards)
    }

    benches: dict[str, dict] = {}
    print(f"scenario: {NAPPS} apps, {ARRIVALS} arrivals, "
          f"horizon {horizon:.3g}", file=sys.stderr)
    for policy in POLICIES:
        clean, wall = run_point(workload, platform, arrivals, horizon,
                                policy, "none")
        benches[f"chaos_{policy}_clean"] = {
            "backend": "serial", "batch": 1, "instances": 1,
            "wall_s": wall, "instances_per_s": 1.0 / wall,
            "fault_rate": 0.0, "goodput": clean.goodput,
            "goodput_retained": 1.0, "crashes": 0,
            "makespan": clean.makespan,
        }
        print(f"  {policy:10s} clean      goodput {clean.goodput:8.3f}  "
              f"makespan {clean.makespan:.4g}", file=sys.stderr)
        for hazard in hazards:
            result, wall = run_point(workload, platform, arrivals, horizon,
                                     policy, compiled[hazard])
            retained = result.goodput / clean.goodput
            benches[f"chaos_{policy}_h{hazard:g}"] = {
                "backend": "serial", "batch": 1, "instances": 1,
                "wall_s": wall, "instances_per_s": 1.0 / wall,
                "fault_rate": hazard, "goodput": result.goodput,
                "goodput_retained": retained,
                "crashes": result.crashes,
                "lost_work": result.lost_work,
                "makespan": result.makespan,
            }
            print(f"  {policy:10s} h={hazard:<8g} goodput {result.goodput:8.3f}  "
                  f"retained {retained:6.3f}  crashes {result.crashes}",
                  file=sys.stderr)

    write_trajectory(args.out, benches, reps=1, pr="pr9")

    from check_trajectory import validate_record
    import json
    errors = validate_record(json.loads(args.out.read_text()))
    if errors:
        for err in errors:
            print(f"SCHEMA  {err}", file=sys.stderr)
        return 1
    print(f"{args.out}: schema OK ({len(benches)} benches)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
