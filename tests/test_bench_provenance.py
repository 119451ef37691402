"""Provenance recorded in every BENCH trajectory record."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_PROBE = """
import json, sys
sys.path.insert(0, "benchmarks")
import _harness
from check_trajectory import _check
fingerprint = _harness.machine_fingerprint()
schema = json.loads(open("benchmarks/trajectory_schema.json").read())
errors = []
_check(fingerprint, schema["properties"]["machine"], "$.machine", errors)
print(json.dumps({"fingerprint": fingerprint, "errors": errors,
                  "scipy_loaded": "scipy" in sys.modules}))
"""


def test_machine_fingerprint_records_the_pinned_toolchain():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _PROBE], cwd=ROOT, env=env,
                         capture_output=True, text=True, check=True)
    report = json.loads(out.stdout.strip().splitlines()[-1])
    fingerprint = report["fingerprint"]
    pinned = [line.split("==")[0] for line in
              (ROOT / "requirements-ci.txt").read_text().splitlines()
              if line and not line.startswith("#")]
    assert pinned and all(name in fingerprint for name in pinned)
    assert report["errors"] == []
    # Versions come from package metadata: recording them imports nothing.
    assert report["scipy_loaded"] is False
