"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Application, Platform, Workload, registry
from repro.machine import taihulight
from repro.workloads import npb6, npb_synth


def pytest_configure(config: pytest.Config) -> None:
    config.addinivalue_line(
        "markers",
        "kernel_equivalence: golden old-vs-new engine comparisons proving "
        "the kernel refactor is bit-identical on seeded sweeps "
        "(run alone with -m kernel_equivalence)",
    )


@pytest.fixture(autouse=True)
def _isolated_scheduler_registry():
    """A scheduler registered by one test does not leak into the next."""
    saved = dict(registry._REGISTRY)
    yield
    registry._REGISTRY.clear()
    registry._REGISTRY.update(saved)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def platform() -> Platform:
    """The paper's main platform (256 procs, 32 GB LLC)."""
    return taihulight()


@pytest.fixture
def tiny_platform() -> Platform:
    """A small platform for hand-checkable numbers."""
    return Platform(p=4.0, cache_size=1e6, latency_cache=0.17,
                    latency_memory=1.0, alpha=0.5, name="tiny")


@pytest.fixture
def npb6_pp() -> Workload:
    """NPB-6, perfectly parallel."""
    return npb6(seq_range=None)


@pytest.fixture
def npb6_amdahl(rng) -> Workload:
    """NPB-6 with random sequential fractions."""
    return npb6(rng=rng)


@pytest.fixture
def synth16(rng) -> Workload:
    return npb_synth(16, rng)


@pytest.fixture
def synth16_pp(rng) -> Workload:
    return npb_synth(16, rng, seq_range=None)


@pytest.fixture
def two_apps() -> Workload:
    """Two hand-built perfectly parallel applications."""
    return Workload([
        Application(name="A", work=1e9, seq_fraction=0.0, access_freq=0.5,
                    miss_rate=0.01),
        Application(name="B", work=2e9, seq_fraction=0.0, access_freq=0.8,
                    miss_rate=0.005),
    ])
