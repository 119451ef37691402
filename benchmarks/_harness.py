"""Helpers behind the committed perf trajectory records.

``BENCH_pr6.json`` at the repo root is written by
``benchmarks/bench_trajectory.py`` and gated by
``benchmarks/check_trajectory.py``.  Every record carries a machine
fingerprint and the git revision; :func:`write_trajectory` is the
canonical record writer.  ``REPRO_BENCH_REPS`` (default 5) sets the
repetitions of ``bench_trajectory.py``.
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

BENCH_REPS = int(os.environ.get("REPRO_BENCH_REPS", "5"))

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
