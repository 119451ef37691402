"""chaos-replay: the committed chaos scenarios, freshly seeded and audited.

Each spec in ``tests/chaos/scenarios`` contributes its dataset, app
count, arrival process, fault spec and declared policies, plus
``dominant-minratio``.  A *round* runs every (scenario, policy) pair once
on one freshly seeded instance of each scenario: workload, arrivals and
fault stream all come from seeds derived from the workload seed and the
round number.  Every round is new input, because a run's cost depends
heavily on how many crashes its draw holds; many distinct rounds, not
repeats of one, keep the median steady from seed to seed.  For the same
reason the committed app counts are kept: at twice the count a few
crash-storm runs dominate every round and a 20-s run holds only four
or five rounds.  A round's instances are drawn just before it runs,
outside the timed runs, so set-up does not grow with the time budget.
Each run compiles its fault stream, simulates, and is audited by
``check_invariants``.

Throughput and CPU per run are those of a *typical* round: the round's
run count over the sum, across the (scenario, policy) cases, of each
case's median run time over the run's rounds, and likewise for CPU.  A
round's own rate swings with the crash storms its draw holds; the
per-case medians do not, which keeps the figures steady from seed to
seed.  Every run's time and CPU is scaled by the speed probes of its
own round (see ``stats.summarize_rounds``).
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

import repro.chaos as chaos
from repro.chaos import faults as chaos_faults
from repro.chaos import injector as chaos_injector
from repro.chaos import runner as chaos_runner
from repro.machine.presets import get_preset
from repro.online.arrivals import parse_arrival_spec
from repro.workloads.synthetic import generate

from stats import derive_seed, median, self_peak_rss_mb, speed_probe, summarize_rounds

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "tests" / "chaos" / "scenarios"
#: Policy run on every scenario besides the declared ones.
EXTRA_POLICY = "dominant-minratio"
#: Per-run latency percentile reported as ``tail_ms``: a 30-s run audits
#: over 250 runs, so at least ten lie beyond it.
TAIL_Q = 95.0
MIN_ROUNDS = 2


class ChaosWorkload:
    def __init__(self, name: str, seed: int, seconds: float, workdir: Path):
        self.seed = seed
        self.specs = [json.loads(p.read_text()) for p in sorted(SCENARIO_DIR.glob("*.json"))]
        self.rounds: list[list[tuple]] = []
        self.next_round = 0
        self.goodput: dict[str, float] = {}
        self.failures: list[str] = []
        self.failed_runs = 0
        self.runs = 0
        #: Failures and runs that measure() already reported.
        self.reported = (0, 0)

    def _round(self, r: int) -> list[tuple]:
        """Round *r*'s cases, drawn on first use and kept for replays."""
        while len(self.rounds) <= r:
            self.rounds.append(self._build_round(self.seed, len(self.rounds)))
        return self.rounds[r]

    def _build_round(self, seed: int, r: int) -> list[tuple]:
        cases = []
        for spec in self.specs:
            n = spec["workload"]["n"]
            rng = np.random.default_rng(derive_seed(seed, spec["id"], r))
            workload = generate(spec["workload"]["dataset"], n, rng)
            arrivals = (parse_arrival_spec(spec["arrivals"]).times(n, rng)
                        if spec.get("arrivals") else np.zeros(n))
            fault_spec = chaos.parse_fault_spec(spec["faults"])
            fault_seed = derive_seed(seed, spec["id"], r, spec["fault_seed"])
            for policy in (*spec["policies"], EXTRA_POLICY):
                cases.append((f"{spec['id']:02d}-{spec['title']}#{r}/{policy}", workload,
                              get_preset(spec["platform"]), arrivals,
                              fault_spec, fault_seed, policy))
        return cases

    def close(self) -> float:
        return self_peak_rss_mb()

    def _run(self, case):
        label, workload, platform, arrivals, fault_spec, fault_seed, policy = case
        result = chaos_runner.run_chaos(
            workload, platform, arrivals, faults=fault_spec, policy=policy,
            fault_rng=np.random.default_rng(fault_seed))
        return label, result, chaos.check_invariants(result)

    def _audit(self, label, result, report) -> bool:
        """Invariants hold, everyone finished, a replay keeps its goodput."""
        problems = list(report.failures)
        if not np.all(np.isfinite(result.finish_times)):
            problems.append("unfinished applications")
        first = self.goodput.setdefault(label, result.goodput)
        if result.goodput != first:
            problems.append(f"replayed goodput {result.goodput!r} != first run's {first!r}")
        self.failures.extend(f"{label}: {p}" for p in problems)
        return not problems

    def _rounds(self, seconds: float, min_rounds: int, on_result=None) -> list[list[tuple]]:
        """Run fresh rounds until *seconds* pass.

        Returns per round one ``(1, wall s, cpu s, speed probe s)`` op per
        run, the probe taken right before the run.
        """
        deadline = perf_counter() + seconds
        rounds = []
        while len(rounds) < min_rounds or perf_counter() < deadline:
            ops = []
            for case in self._round(self.next_round):
                probe = speed_probe()
                t0, c0 = perf_counter(), process_time()
                label, result, report = self._run(case)
                ops.append((1, perf_counter() - t0, process_time() - c0, probe))
                if on_result is not None:
                    on_result(result)
                self.failed_runs += not self._audit(label, result, report)
                self.runs += 1
            self.next_round += 1
            rounds.append(ops)
        return rounds

    def measure(self, seconds: float) -> dict:
        rounds = self._rounds(seconds, MIN_ROUNDS)
        out = summarize_rounds(rounds, TAIL_Q)
        cases = len(rounds[0])

        def typical(per_op):
            """A typical round's total: each case's median over the rounds, summed."""
            return sum(median(r[c] for r in per_op) for c in range(cases))

        out["raw"]["throughput_per_s"] = cases / typical([[op[1] for op in ops] for ops in rounds])
        out["raw"]["cpu_ms_per_op"] = typical([[op[2] for op in ops] for ops in rounds]) / cases * 1e3
        out["throughput_per_s"] = cases / typical(out["times"])
        out["cpu_ms_per_op"] = typical(out["cpu"]) / cases * 1e3
        out["throughput_samples"] = f"{cases} cases x median of {len(rounds)} rounds"
        out["cpu_samples"] = out["throughput_samples"]
        out["failed"] = self.failed_runs
        out["messages"] = list(self.failures)
        self.reported = (len(self.failures), self.runs)
        out["named"] = {"runs_per_s": (out["throughput_per_s"], "1/s",
                                       out["throughput_samples"])}
        return out

    def check(self) -> tuple[int, list[str]]:
        """Replay the first run; its goodput must repeat exactly.

        Also reports the runs audited since measure() (those of a traced
        pass) and their failures, so that each failure counts once.
        """
        self._audit(*self._run(self._round(0)[0]))
        failures, runs = self.reported
        return 1 + self.runs - runs, self.failures[failures:]

    def traced(self, tracer, seconds: float, untraced: dict) -> dict:
        make_allocator = chaos_runner.make_policy_allocator

        def traced_allocator(*args, **kwargs):
            return tracer.wrap("online.allocate", make_allocator(*args, **kwargs),
                               lambda *_: tracer.count("online.allocate_calls"))

        def on_result(result):
            tracer.count("chaos.crashes", result.crashes)
            tracer.count("chaos.lost_work", result.lost_work)
            tracer.count("chaos.total_work", result.total_work)

        tracer.replace(chaos_runner, "make_policy_allocator", traced_allocator)
        tracer.patch(chaos_runner, "run_phase_kernel", "simulate.kernel",
                     lambda a, k, result: tracer.count("simulate.events", result.events))
        tracer.patch(chaos_injector.FaultInjector, "allocate", "chaos.inject")
        tracer.patch(chaos_faults.FaultSpec, "compile", "chaos.compile",
                     lambda a, k, result: tracer.count("chaos.fault_events",
                                                       len(result.events)))
        tracer.patch(chaos, "check_invariants", "chaos.audit")
        tracer.trace_schedulers()
        self.next_round = 0  # the untraced pass's rounds again, for a paired overhead
        try:
            traced_rounds = self._rounds(seconds, 1, on_result)
        finally:
            tracer.restore()
        rounds = len(traced_rounds)
        rates = summarize_rounds(traced_rounds, TAIL_Q)["round_rates"]
        spans = tracer.summary()

        def ms(name):
            return spans.get(name, {}).get("self_s", 0.0) * 1e3 / rounds

        counts = tracer.counts
        return {
            "trace.overhead_pct": (median(u / t for u, t in zip(untraced["round_rates"], rates))
                                   - 1.0) * 100.0,
            "online.allocate_ms": ms("online.allocate"),
            "online.allocate_calls": counts["online.allocate_calls"] / rounds,
            "simulate.kernel_self_ms": ms("simulate.kernel"),
            "simulate.events": counts["simulate.events"] / rounds,
            "chaos.compile_ms": ms("chaos.compile"),
            "chaos.inject_ms": ms("chaos.inject"),
            "chaos.fault_events": counts["chaos.fault_events"] / rounds,
            "chaos.audit_ms": ms("chaos.audit"),
            "chaos.crashes": counts["chaos.crashes"] / rounds,
            "chaos.rework_ratio": counts["chaos.lost_work"] / counts["chaos.total_work"],
            "core.schedule_ms": ms("core.schedule"),
        }
