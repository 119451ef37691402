#!/usr/bin/env python3
"""The repository benchmark: one workload, end-to-end or per-layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload figure-sweep --seed 1 --seconds 20 --trace 0

Workloads: ``figure-sweep``, ``chaos-replay``, ``serve-mixed`` and
``serve-burst`` (see ``perfbench/README.md`` for why each exists and
``perfbench/layers.json`` for which layer metric should move which
end-to-end metric).

Every workload runs in fresh interpreters started from here with
``src`` on ``PYTHONPATH``.  A few set-up-only starts plus the measured
start give the median ``setup_s``, each start's set-up time scaled by
the speed probes it takes right after set-up; the measured start then
runs for ``--seconds`` and checks its outputs.  With ``--trace 1`` the measured
start spends half the budget untraced and half traced and the result
holds the per-layer metrics and the tracing overhead instead of the
end-to-end ones.

Human-readable tables and a provenance record go to stdout first; the
last stdout line is the JSON result.  The exit code is 0 only when
every output check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from stats import REF_PROBE_S
from worker import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-up-only interpreter starts per run, besides the measured one.
SETUP_ONLY_STARTS = 4

#: Seconds a worker may take beyond its measuring budget.
WORKER_SLACK_S = 60.0



def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


class BenchError(RuntimeError):
    """A worker failed to run; no result can be reported."""


def _worker_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_worker(args, workdir: Path, *, setup_only: bool) -> dict:
    """Start one worker interpreter; returns its JSON plus ``setup_s``."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    # Its own session, so a timeout can stop the worker and the server it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=args.seconds + WORKER_SLACK_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker timed out after {args.seconds + WORKER_SLACK_S:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{stderr[-4000:]}")
    result = json.loads(stdout.strip().splitlines()[-1])
    result["setup_raw_s"] = result["ready_mono"] - spawned
    result["setup_s"] = result["setup_raw_s"] / (result["setup_probe_s"] / REF_PROBE_S)
    return result


def git_revision() -> str | None:
    """HEAD's commit id read from ``.git`` (None outside a git checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            ref_file = git / ref
            if ref_file.exists():
                return ref_file.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return None
        return head
    except OSError:
        return None


def source_digest() -> str:
    """SHA-256 over ``src``'s Python files: identifies the code without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(args, versions: dict) -> dict:
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": sys.version.split()[0],
        **versions,
        "git_revision": git_revision(), "source_sha256": source_digest(),
    }


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def end_to_end(main: dict, starts: list[dict], attempted: int, failed: int):
    """The end-to-end metrics plus a table for humans.

    Timings are scaled by a speed factor (see ``stats.py``): the
    measured window's by the probes taken in it, each start's set-up
    time by the probes that start took right after set-up.  The table
    shows the unscaled figure beside each scaled one.
    """
    m = main["measure"]
    units = metric_units("end_to_end")
    rows = {
        "setup_s": (median(r["setup_s"] for r in starts),
                    f"median of {len(starts)} interpreter starts"),
        "peak_rss_mb": (main["peak_rss_mb"], "1 process"),
        "success_ratio": ((attempted - failed) / attempted, f"{attempted} ops"),
        "throughput_per_s": (m["throughput_per_s"], m["throughput_samples"]),
        "p50_ms": (m["p50_ms"], f"{m['latency_samples']} ops"),
        "tail_ms": (m["tail_ms"], m.get("tail_samples",
                                        f"p{m['tail_q']:g} of {m['latency_samples']} ops")),
        "cpu_ms_per_op": (m["cpu_ms_per_op"], m.get("cpu_samples", f"{m['attempted']} ops")),
    }
    metrics = {name: {"value": value, "unit": units[name]}
               for name, (value, _) in rows.items()}
    table = [f"  {'metric':<18} {'value':>12} {'unscaled':>12} {'unit':<6} samples"]
    for name, (value, samples) in rows.items():
        raw = _fmt(m["raw"][name]) if name in m["raw"] else ""
        if name == "setup_s":
            raw = _fmt(median(r["setup_raw_s"] for r in starts))
        table.append(f"  {name:<18} {_fmt(value):>12} {raw:>12} "
                     f"{units[name]:<6} {samples}")
    for name, (value, unit, samples) in m.get("named", {}).items():
        table.append(f"  {name:<18} {_fmt(value):>12} {'':>12} {unit:<6} {samples}")
    table.append(f"  speed factor {_fmt(m['speed_factor'])} from {m['probes']} probes "
                 f"(1 = the reference kernel takes {_fmt(REF_PROBE_S * 1e3)} ms)")
    return metrics, table


def per_layer(main: dict, imports: list[float]) -> tuple[dict, list[str]]:
    """Every ``per_layer`` metric of BENCHMARK.json, plus a table for humans.

    Names and units come from BENCHMARK.json; ``layers.json`` adds which
    end-to-end metric each should move and on which workload.  A layer
    the workload does not drive reads 0; measured values BENCHMARK.json
    does not name are printed but not reported.
    """
    predictions = json.loads((HERE / "layers.json").read_text())["layers"]
    measured = dict(main["layers"])
    measured["setup.import_s"] = median(imports)
    metrics, table = {}, []
    for name, unit in metric_units("per_layer").items():
        value = float(measured.pop(name, 0.0))
        metrics[name] = {"value": value, "unit": unit}
        layer = predictions[name]
        table.append(f"  {name:<34} {_fmt(value):>12} {unit:<6} "
                     f"-> {layer['moves']} on {layer['on']}")
    table.extend(f"  {name:<34} {_fmt(value):>12} (not reported)"
                 for name, value in sorted(measured.items()))
    return metrics, table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    try:
        starts = [run_worker(args, workdir / f"setup{i}", setup_only=True)
                  for i in range(SETUP_ONLY_STARTS)]
        main_run = run_worker(args, workdir / "main", setup_only=False)
        starts.append(main_run)
        imports = [r["import_s"] for r in starts]
        measure = main_run["measure"]
        attempted = measure["attempted"] + main_run["checked"]
        failed = measure["failed"] + len(main_run["failures"])
        messages = measure.get("messages", []) + main_run["failures"]
        if args.trace:
            metrics, table = per_layer(main_run, imports)
        else:
            metrics, table = end_to_end(main_run, starts, attempted, failed)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # only when no other run still uses it
        except OSError:
            pass

    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("\n".join(table))
    if not args.trace:
        for name, value in main_run["measure"].get("counts", {}).items():
            print(f"  server {name} = {_fmt(value)}")
    for line in messages[:20]:
        print(f"  CHECK FAILED: {line}")
    print("provenance " + json.dumps(provenance(args, main_run["versions"])))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
