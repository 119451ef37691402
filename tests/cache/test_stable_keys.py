"""Cross-process stability of cache keys.

The whole point of content addressing is that two processes agree on
the name of the same work.  Python's builtin ``hash()`` is randomized
per process (PYTHONHASHSEED), so anything derived from it silently
disagrees across processes — which is how ``repr()`` of nested code
objects (memory addresses) once made spec fingerprints unique per
process.  These tests run the actual key derivation in subprocesses
with *different* hash seeds and assert bit-identical answers — for the
keys, and for the figure arrays stored under them.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[2] / "src")

#: Probe run in a fresh interpreter: prints the spec fingerprint.
#: The factory deliberately nests a lambda (a code object in
#: ``co_consts``) — the exact shape whose repr used to embed a memory
#: address and break fingerprint stability.
_PROBE = """
import numpy as np
from repro.experiments import Experiment, spec_fingerprint
from repro.machine import taihulight
from repro.workloads import npb_synth


def factory(point, rng):
    pick = lambda n: npb_synth(max(1, int(n)), rng)
    return pick(point), taihulight()


exp = Experiment(
    experiment_id="probe",
    title="probe",
    xlabel="n",
    points=np.array([2.0, 4.0]),
    factory=factory,
    schedulers=("fair",),
    reps=2,
    seed=7,
)
print(spec_fingerprint(exp))
"""


#: Prints every paper figure's spec fingerprint, one per line.
_FIGURE_KEYS_PROBE = """
from repro.experiments import build_figure, figure_ids, spec_fingerprint
for fid in figure_ids():
    print(fid, spec_fingerprint(build_figure(fid, reps=2, seed=1)))
"""

#: Prints a SHA-256 over a small fig3 grid's result arrays.
_FIGURE_RESULT_PROBE = """
import hashlib
from repro.experiments import build_figure, run_experiment
res = run_experiment(build_figure("fig3", reps=2, seed=1), use_cache=False)
digest = hashlib.sha256()
for name in res.schedulers:
    for metric in sorted(res.data[name]):
        digest.update(f"{name}/{metric}".encode())
        digest.update(res.samples(name, metric).tobytes())
print(digest.hexdigest())
"""


def _run_probe(hashseed: str, code: str = _PROBE) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _run_here(code: str) -> str:
    """Run a probe in this interpreter; what it prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    return out.getvalue()


class TestCrossProcessStability:
    def test_fingerprints_survive_hash_randomization(self):
        """Two interpreters with different hash seeds agree on the key."""
        out1 = _run_probe("1")
        out2 = _run_probe("2")
        assert out1 == out2
        # The probe prints one SHA-256 hex spec fingerprint.
        fingerprint = out1.strip()
        assert len(fingerprint) == 64
        int(fingerprint, 16)

    def test_figure_fingerprints_match_across_interpreters(self):
        """Every figure's key is the same in a fresh interpreter, so a
        result cache written by one process is warm for the next."""
        here = _run_here(_FIGURE_KEYS_PROBE)
        assert _run_probe("2", _FIGURE_KEYS_PROBE) == here
        keys = [line.split()[1] for line in here.splitlines()]
        assert len(set(keys)) == len(keys) == 18

    def test_figure_results_match_across_interpreters(self):
        """Interpreters with different hash seeds compute the same
        figure arrays, byte for byte."""
        here = _run_here(_FIGURE_RESULT_PROBE)
        assert _run_probe("1", _FIGURE_RESULT_PROBE) == here
        assert _run_probe("2", _FIGURE_RESULT_PROBE) == here
        assert len(here.strip()) == 64
