"""Package metadata for ``repro`` (the sources live under ``src/``).

``python setup.py develop`` installs it in place, which also works
offline, without the ``wheel`` package that PEP-517 editable installs
need.  The version is read from ``src/repro/__init__.py`` so it is
written down once.
"""
import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
_VERSION = re.search(r'^__version__ = "([^"]+)"$', _INIT.read_text(), re.M).group(1)

setup(
    name="repro",
    version=_VERSION,
    description="Co-scheduling algorithms for cache-partitioned systems",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=["numpy", "scipy"],
)
