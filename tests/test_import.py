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
    """scipy loads only on the one path that needs it (continuous-opt)."""
    assert _run("import sys, repro; print('scipy' in sys.modules)") == "False"
    importers = [str(path.relative_to(SRC)) for path in sorted(SRC.rglob("*.py"))
                 if "from scipy" in path.read_text() or "import scipy" in path.read_text()]
    assert importers == ["repro/extensions/continuous.py"]


def test_import_service_loads_no_engine_or_threaded_server():
    """The service needs neither the experiment stack nor a thread pool."""
    banned = ("repro.experiments", "repro.simulate", "repro.chaos",
              "http.server", "concurrent.futures.thread")
    loaded = _run(
        "import sys, repro.service; "
        f"print(sorted(m for m in {banned!r} if m in sys.modules))")
    assert loaded == "[]"


def test_import_repro_loads_only_the_core():
    """``import repro`` loads the model core and nothing else: the
    extension schedulers are registered but not imported."""
    loaded = _run(
        "import sys, repro; "
        "print(' '.join(sorted(m for m in sys.modules "
        "if m == 'repro' or m.startswith('repro.'))))").split()
    stray = [m for m in loaded
             if m not in ("repro", "repro.types", "repro.core")
             and not m.startswith("repro.core.")]
    assert "repro.core.registry" in loaded
    assert stray == []


def test_extension_scheduler_loads_on_first_call():
    """A registered extension runs without importing repro.extensions first."""
    out = _run(
        "import sys\n"
        "import numpy as np\n"
        "from repro import get_scheduler\n"
        "from repro.machine import taihulight\n"
        "from repro.workloads import npb_synth\n"
        "wl = npb_synth(6, np.random.default_rng(0))\n"
        "before = 'repro.extensions' in sys.modules\n"
        "schedule = get_scheduler('continuous-opt')(wl, taihulight(), None)\n"
        "print(before, 'repro.extensions' in sys.modules, schedule.is_feasible())\n")
    assert out == "False True True"


def test_import_experiments_loads_no_online_chaos_or_simulate():
    """The figure grid runs in-process on the batch core alone."""
    banned = ("repro.online", "repro.chaos", "repro.simulate",
              "multiprocessing")
    loaded = _run(
        "import sys, repro.experiments; "
        f"print(sorted(m for m in {banned!r} if m in sys.modules))")
    assert loaded == "[]"
