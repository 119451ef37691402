"""Package metadata declared by ``setup.py``."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parent.parent


def test_setup_py_declares_name_and_version():
    out = subprocess.run(
        [sys.executable, "setup.py", "--name", "--version"], cwd=ROOT,
        capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["repro", repro.__version__]
