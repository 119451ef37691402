"""Statistics, the machine-speed probe and /proc readers shared by the workloads.

On a shared VM the effective CPU speed drifts by tens of percent over
minutes (no steal time shows; the cores just run slower), and every
timing moves with it.  :func:`speed_probe` times a fixed pure-Python
and small-numpy kernel that shares no code with the program.  Workloads
take a probe right before each operation (the server idle, on the serve
workloads) and report timings scaled to a machine on which the kernel
takes ``REF_PROBE_S``: with ``f`` the mean probe over ``REF_PROBE_S``,
a time ``t`` is reported as ``t / f`` and a rate ``r`` as ``r * f``.
One factor per round of operations (figure-sweep, chaos-replay) or per
run (the serve workloads), from tens to hundreds of probes, follows the
slow drift without adding per-operation noise.  The unscaled figures
are printed beside the scaled ones.
"""

from __future__ import annotations

import math
import os
from statistics import fmean, median
from time import perf_counter

import numpy as np

__all__ = ["median", "percentile", "proc_cpu_s", "proc_peak_rss_mb", "self_peak_rss_mb",
           "thread_cpu_s", "dir_bytes", "derive_seed", "speed_probe", "probe_every_cpu", "speed_factor",
           "summarize_rounds", "scale", "REF_PROBE_S"]

#: Probe time the scaled metrics refer to (about the kernel's time on a 2-CPU VM).
REF_PROBE_S = 1e-3

#: The CPUs this process may run on when it starts, before any pinning.
ALL_CPUS = frozenset(os.sched_getaffinity(0))


def speed_probe() -> float:
    """Seconds one run of the fixed reference kernel takes now."""
    start = perf_counter()
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(3000):
        table[i & 63] = acc
        acc += (i * 0.5) % 7.0
    values = np.arange(16.0)
    for _ in range(200):
        values = np.sqrt(values * 1.0001 + 1.0)
    return perf_counter() - start


def probe_every_cpu(per_cpu: int, cpus=ALL_CPUS) -> float:
    """Median of *per_cpu* speed probes on each of *cpus*.

    Each CPU of a shared VM drifts on its own, so the probe visits each
    in turn; the first kernel run after a move only warms the CPU's
    caches and is dropped.
    The median ignores a probe that another process preempted.
    """
    pinned = os.sched_getaffinity(0)
    probes = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            speed_probe()
            probes += [speed_probe() for _ in range(per_cpu)]
    finally:
        os.sched_setaffinity(0, pinned)
    return median(probes)


def speed_factor(probes) -> float:
    """How much slower than the reference machine the run's probes say it was."""
    return fmean(probes) / REF_PROBE_S


def percentile(values, q: float) -> float:
    """Nearest-rank *q*-th percentile (0 < q <= 100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def _clock_ticks() -> int:
    return os.sysconf("SC_CLK_TCK")


def _cpu_s(stat_path: str) -> float:
    with open(stat_path) as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    # fields[0] is the state (field 3); utime and stime are fields 14, 15.
    return (int(fields[11]) + int(fields[12])) / _clock_ticks()


def proc_cpu_s(pid: int) -> float:
    """utime + stime of process *pid* (all its threads), in seconds, from /proc."""
    return _cpu_s(f"/proc/{pid}/stat")


def thread_cpu_s(pid: int, tid: int) -> float:
    """utime + stime of thread *tid* of process *pid*, in seconds, from /proc."""
    return _cpu_s(f"/proc/{pid}/task/{tid}/stat")


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of process *pid*, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def self_peak_rss_mb() -> float:
    return proc_peak_rss_mb(os.getpid())


def dir_bytes(path) -> int:
    total = 0
    for root, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total


def derive_seed(seed: int, *labels: int) -> int:
    """A 32-bit seed derived from the workload seed and integer labels."""
    return int(np.random.SeedSequence([seed, *labels]).generate_state(1)[0])


def summarize_rounds(rounds, tail_q: float) -> dict:
    """End-to-end figures from rounds of timed operations.

    *rounds* is a list of rounds, each a list of ``(units, wall_s,
    cpu_s, probe_s)`` per operation (``units``: work items the
    operation completes, e.g. grid tasks; ``probe_s``: the speed probe
    taken right before it).  Every operation's time and CPU is scaled by
    the speed factor of its own round's probes, which follows a drift
    within a run better than one factor for the whole run.  Throughput
    is the median over rounds of units per second, latency percentiles
    are over operation times and CPU is per unit.  ``times`` and
    ``cpu`` hold the scaled operation times and CPU seconds, round by
    round.
    """
    factors = [speed_factor([op[3] for op in ops]) for ops in rounds]
    times = [[op[1] / f for op in ops] for ops, f in zip(rounds, factors)]
    cpu = [[op[2] / f for op in ops] for ops, f in zip(rounds, factors)]
    rates = [sum(op[0] for op in ops) / sum(op[1] for op in ops) for ops in rounds]
    scaled_rates = [rate * f for rate, f in zip(rates, factors)]
    op_ms = [op[1] * 1e3 for ops in rounds for op in ops]
    scaled_ms = [t * 1e3 for round_times in times for t in round_times]
    units = sum(op[0] for ops in rounds for op in ops)
    cpu_s = sum(op[2] for ops in rounds for op in ops)
    probes = [op[3] for ops in rounds for op in ops]
    return {
        "throughput_per_s": median(scaled_rates),
        "p50_ms": median(scaled_ms),
        "tail_ms": percentile(scaled_ms, tail_q),
        "cpu_ms_per_op": sum(map(sum, cpu)) / units * 1e3,
        "raw": {"throughput_per_s": median(rates), "p50_ms": median(op_ms),
                "tail_ms": percentile(op_ms, tail_q), "cpu_ms_per_op": cpu_s / units * 1e3},
        "speed_factor": speed_factor(probes),
        "probes": len(probes),
        "times": times,
        "cpu": cpu,
        "ops": len(op_ms),
        "attempted": units,
        "throughput_samples": f"median of {len(rates)} rounds",
        "round_rates": scaled_rates,
        "tail_q": tail_q,
        "latency_samples": len(op_ms),
    }


def scale(raw: dict, probes) -> dict:
    """*raw*'s throughput, p50, tail and CPU scaled by the run's speed factor."""
    factor = speed_factor(probes)
    return {
        "throughput_per_s": raw["throughput_per_s"] * factor,
        "p50_ms": raw["p50_ms"] / factor,
        "tail_ms": raw["tail_ms"] / factor,
        "cpu_ms_per_op": raw["cpu_ms_per_op"] / factor,
        "raw": raw,
        "speed_factor": factor,
        "probes": len(probes),
    }
