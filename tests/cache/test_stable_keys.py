"""Cross-process stability of cache keys.

The whole point of content addressing is that two processes agree on
the name of the same work.  Python's builtin ``hash()`` is randomized
per process (PYTHONHASHSEED), so anything derived from it silently
disagrees across processes — which is how ``repr()`` of nested code
objects (memory addresses) once made spec fingerprints unique per
process.  These tests run the actual key derivation in subprocesses
with *different* hash seeds and assert bit-identical answers.
"""

from __future__ import annotations

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


def _run_probe(hashseed: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


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
