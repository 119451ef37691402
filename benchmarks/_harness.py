"""Shared machinery for the figure-regeneration benchmarks.

Each ``bench_figNN_*.py`` calls :func:`run_and_report`, which

1. runs the figure's experiment once inside ``benchmark.pedantic``
   (so ``pytest benchmarks/ --benchmark-only`` reports the wall time of
   a full regeneration), and
2. prints the figure's series — the same rows the paper plots — in
   every normalization the paper uses, plus an ASCII rendering.

Repetitions default to 5 (the paper uses 50); set ``REPRO_BENCH_REPS``
to change.  Set ``REPRO_BENCH_CSV_DIR`` to also dump each series as
CSV.  The experiment engine's knobs apply too: ``REPRO_BACKEND=process``
regenerates on a fork pool (bit-identical results), and with
``REPRO_CACHE_DIR`` set, a re-run of any figure is a content-addressed
cache hit that skips the scheduling work entirely.

This module also holds the helpers behind the committed perf
trajectory (``BENCH_pr6.json`` at the repo root, written by
``benchmarks/bench_trajectory.py`` and gated by
``benchmarks/check_trajectory.py``): a machine fingerprint, the git
revision, and the canonical record writer.
"""

from __future__ import annotations

import json
import os
import platform as _platform
import re
import subprocess
from importlib import metadata
import sys
from datetime import datetime, timezone
from pathlib import Path

from repro.experiments import build_figure, resolve_backend, resolve_cache_dir, run_experiment
from repro.experiments.figures import FIGURE_NORMALIZATIONS
from repro.experiments.tables import render_result
from repro.viz import plot_result

BENCH_REPS = int(os.environ.get("REPRO_BENCH_REPS", "5"))
CSV_DIR = os.environ.get("REPRO_BENCH_CSV_DIR")

#: Repository root (benchmarks/ lives directly under it).
REPO_ROOT = Path(__file__).resolve().parent.parent

#: The pinned toolchain whose installed versions every record carries.
REQUIREMENTS_PATH = REPO_ROOT / "requirements-ci.txt"

#: Version tag of the trajectory record format.
TRAJECTORY_FORMAT = 1


def machine_fingerprint() -> dict:
    """Where a trajectory record was measured.

    Absolute wall times are only comparable on the same fingerprint;
    the regression gate therefore compares machine-independent
    *ratios* (``speedup_vs_scalar``) and treats the absolute numbers
    as provenance.
    """
    import numpy as np

    return {
        **pinned_versions(),
        "platform": _platform.platform(),
        "machine": _platform.machine(),
        "processor": _platform.processor() or _platform.machine(),
        "cpu_count": os.cpu_count(),
        "python": _platform.python_version(),
        "numpy": np.__version__,
    }


def pinned_versions() -> dict[str, str]:
    """Installed version of each package named in ``requirements-ci.txt``.

    Read from package metadata, so nothing is imported (scipy stays
    out of the process); a package that is not installed reads
    ``"not installed"``.
    """
    out = {}
    for line in REQUIREMENTS_PATH.read_text().splitlines():
        name = re.split(r"[\s=<>!~;\[]", line.split("#", 1)[0].strip(), 1)[0]
        if not name:
            continue
        try:
            out[name] = metadata.version(name)
        except metadata.PackageNotFoundError:
            out[name] = "not installed"
    return out


def git_revision() -> str:
    """The current commit SHA, or ``"unknown"`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT,
            capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def write_trajectory(path, benches: dict, *, reps: int, pr: str = "pr6") -> dict:
    """Write the canonical trajectory record and return it.

    *benches* maps bench name to its measurement dict (wall seconds,
    throughput, and any bench-specific ratios); *pr* tags which PR's
    bench contract the record satisfies (see
    ``check_trajectory.REQUIRED_BENCHES``).
    """
    record = {
        "format": TRAJECTORY_FORMAT,
        "pr": pr,
        "generated": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "git_sha": git_revision(),
        "reps": reps,
        "machine": machine_fingerprint(),
        "benches": benches,
    }
    path = Path(path)
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"[trajectory] wrote {path}", file=sys.stderr)
    return record


def run_and_report(figure_id: str, benchmark, *, reps: int | None = None,
                   backend: str | None = None, **build_kwargs):
    """Regenerate *figure_id* under the benchmark timer and print it."""
    reps = BENCH_REPS if reps is None else reps
    exp = build_figure(figure_id, reps=reps, **build_kwargs)
    print(f"[engine] backend={resolve_backend(backend, exp)} "
          f"cache={resolve_cache_dir(None) or 'off'}", file=sys.stderr)

    result_box = {}

    def regenerate():
        result_box["result"] = run_experiment(exp, backend=backend)

    benchmark.pedantic(regenerate, iterations=1, rounds=1)
    result = result_box["result"]

    for norm in FIGURE_NORMALIZATIONS[figure_id]:
        print()
        print(render_result(result, normalize_by=norm))
        try:
            logx = "Applications" in result.xlabel and result.x.min() > 0
            print(plot_result(result, normalize_by=norm, logx=logx, height=14))
        except Exception as exc:
            # Plotting is best-effort (the table above is the record),
            # but a failure must be visible, not silently swallowed.
            print(f"[plot] skipped ASCII rendering of {figure_id} "
                  f"({norm or 'raw'}): {type(exc).__name__}: {exc}",
                  file=sys.stderr)
    if CSV_DIR:
        out = Path(CSV_DIR)
        out.mkdir(parents=True, exist_ok=True)
        result.to_csv(out / f"{figure_id}.csv",
                      normalize_by=FIGURE_NORMALIZATIONS[figure_id][0])
        print(f"[csv] wrote {out / (figure_id + '.csv')}", file=sys.stderr)
    return result
