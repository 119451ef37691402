"""figure-sweep: cold regeneration of all 18 paper figures, in rounds.

One round runs every figure's experiment grid with the serial backend
into a fresh result-cache directory, so each round computes every
task and writes every cache entry — the researcher's main use.  The
figure seed comes from the workload seed; reps are fixed so a round is
the same amount of work on every seed.
"""

from __future__ import annotations

import dataclasses
import shutil
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

from repro.core import registry
from repro.experiments import cache as result_cache
from repro.experiments import engine, runner
from repro.experiments.figures import build_figure, figure_ids

from stats import (derive_seed, dir_bytes, median, percentile, self_peak_rss_mb, speed_probe,
                   summarize_rounds)

#: Repetitions per grid point: ~3.4k grid tasks per round, so a run
#: holds enough rounds for a steady median.
REPS = 4
#: Percentile over the 18 figures' median regeneration times reported as ``tail_ms``.
TAIL_Q = 90.0
#: Grid cells per figure re-evaluated through the scalar registry path.
CHECK_CELLS = 4
#: Rounds always run, whatever the time budget.
MIN_ROUNDS = 2


class SweepWorkload:
    def __init__(self, name: str, seed: int, seconds: float, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        fig_seed = derive_seed(seed, 1)
        self.experiments = [build_figure(fid, reps=REPS, seed=fig_seed)
                            for fid in figure_ids()]
        self.last_results: list = []
        self.rounds_run = 0

    def close(self) -> float:
        return self_peak_rss_mb()

    def _round(self, experiments) -> tuple[list[tuple], int]:
        """One cold regeneration; returns per-figure ops and cache bytes written.

        An op is ``(grid tasks, wall s, cpu s, speed probe s)``, the probe
        taken right before the figure.
        """
        cache_dir = self.workdir / f"round{self.rounds_run}"
        self.rounds_run += 1
        ops, results = [], []
        for exp in experiments:
            probe = speed_probe()
            t0, c0 = perf_counter(), process_time()
            results.append(runner.run_experiment(exp, backend="serial", cache_dir=cache_dir))
            ops.append((exp.reps * exp.points.size * len(exp.schedulers),
                        perf_counter() - t0, process_time() - c0, probe))
        written = dir_bytes(cache_dir)
        shutil.rmtree(cache_dir)
        self.last_results = results
        return ops, written

    def _rounds(self, experiments, seconds: float, min_rounds: int):
        deadline = perf_counter() + seconds
        rounds, written = [], 0
        while len(rounds) < min_rounds or perf_counter() < deadline:
            ops, nbytes = self._round(experiments)
            rounds.append(ops)
            written += nbytes
        return rounds, written

    def measure(self, seconds: float) -> dict:
        rounds, _ = self._rounds(self.experiments, seconds, MIN_ROUNDS)
        out = summarize_rounds(rounds, TAIL_Q)
        # The tail over figures, not over pooled figure runs: every round
        # holds the same 18 figures, so a pooled percentile slides from
        # one slow figure's times to another's as the round count varies.
        figures = range(len(rounds[0]))
        figure_ms = [median(ops[f][1] for ops in rounds) * 1e3 for f in figures]
        out["raw"]["tail_ms"] = percentile(figure_ms, TAIL_Q)
        out["tail_ms"] = percentile([median(times[f] for times in out["times"]) * 1e3
                                     for f in figures], TAIL_Q)
        out["tail_samples"] = f"p{TAIL_Q:g} of {len(figure_ms)} figure medians over {len(rounds)} rounds"
        out["failed"] = 0
        out["named"] = {"tasks_per_s": (out["throughput_per_s"], "1/s",
                                        out["throughput_samples"])}
        return out

    # -- output check ---------------------------------------------------
    def check(self) -> tuple[int, list[str]]:
        """Re-evaluate sampled grid cells on the scalar path, bit for bit."""
        rng = np.random.default_rng(derive_seed(self.seed, 2))
        failures, checked = [], 0
        for exp, result in zip(self.experiments, self.last_results):
            tasks = engine.generate_tasks(exp)
            for i in rng.choice(len(tasks), size=CHECK_CELLS, replace=False):
                task = tasks[int(i)]
                workload, platform = exp.factory(
                    task.point, np.random.default_rng(task.instance_seed))
                schedule = registry.get_entry(task.scheduler)(
                    workload, platform, np.random.default_rng(task.scheduler_seed))
                for metric, fn in exp.metrics.items():
                    checked += 1
                    want = np.float64(fn(schedule))
                    got = result.data[task.scheduler][metric][task.rep, task.point_index]
                    if want.tobytes() != np.float64(got).tobytes():
                        failures.append(
                            f"{exp.experiment_id} {task.scheduler} rep={task.rep} "
                            f"point={task.point} {metric}: grid {got!r} != scalar {want!r}")
        return checked, failures

    # -- traced pass ----------------------------------------------------
    def traced(self, tracer, seconds: float, untraced: dict) -> dict:
        tracer.patch(runner, "run_experiment", "experiments.engine")
        tracer.patch(runner, "generate_tasks", "experiments.flatten")
        tracer.patch(result_cache.ResultCache, "store", "experiments.cache_store")
        tracer.patch(result_cache.ResultCache, "load", "experiments.cache_load")
        tracer.trace_schedulers()
        experiments = [
            dataclasses.replace(
                exp,
                factory=tracer.wrap("workloads.build", exp.factory,
                                    lambda *_: tracer.count("workloads.instances")),
                metrics={name: tracer.wrap("core.metric", fn)
                         for name, fn in exp.metrics.items()})
            for exp in self.experiments]
        try:
            traced_rounds, cache_bytes = self._rounds(experiments, seconds, 1)
        finally:
            tracer.restore()
        rounds = len(traced_rounds)
        traced_rate = summarize_rounds(traced_rounds, TAIL_Q)["throughput_per_s"]
        spans = tracer.summary()

        def ms(name):
            return spans.get(name, {}).get("self_s", 0.0) * 1e3 / rounds

        per_round = {k: v / rounds for k, v in tracer.scheduler_counts().items()
                     if k != "core.batch_share"}
        return {
            "trace.overhead_pct": (untraced["throughput_per_s"] / traced_rate - 1.0) * 100.0,
            "experiments.flatten_ms": ms("experiments.flatten"),
            "experiments.engine_self_ms": ms("experiments.engine"),
            "experiments.cache_store_ms": ms("experiments.cache_store"),
            "experiments.cache_load_ms": ms("experiments.cache_load"),
            "experiments.cache_bytes": cache_bytes / rounds,
            "workloads.build_ms": ms("workloads.build"),
            "workloads.instances": tracer.counts["workloads.instances"] / rounds,
            "core.schedule_ms": ms("core.schedule"),
            "core.metric_ms": ms("core.metric"),
            "core.batch_share": tracer.scheduler_counts()["core.batch_share"],
            **per_round,
        }
