"""Import-time contract of the package."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _run(code: str) -> str:
    """Run *code* in a fresh interpreter with ``src`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_import_repro_does_not_load_scipy():
    """scipy loads only on the paths that need it (continuous-opt, brentq)."""
    assert _run("import sys, repro; print('scipy' in sys.modules)") == "False"


def test_import_service_loads_no_engine_or_threaded_server():
    """The service needs neither the experiment stack nor a thread pool."""
    banned = ("repro.experiments", "repro.simulate", "repro.chaos",
              "http.server", "concurrent.futures.thread")
    loaded = _run(
        "import sys, repro.service; "
        f"print(sorted(m for m in {banned!r} if m in sys.modules))")
    assert loaded == "[]"


def test_import_repro_loads_only_the_model_and_registered_extensions():
    """``import repro`` loads the core, the extension schedulers it
    registers, and the cache simulator they build on — nothing else."""
    loaded = _run(
        "import sys, repro; "
        "print(' '.join(sorted(m for m in sys.modules "
        "if m == 'repro' or m.startswith('repro.'))))").split()
    packages = ("repro.core", "repro.extensions", "repro.cachesim")
    stray = [m for m in loaded
             if m not in ("repro", "repro.types") + packages
             and not m.startswith(tuple(p + "." for p in packages))]
    assert stray == []
