"""Tests for the Platform model."""

from __future__ import annotations

import math

import pytest

from repro.core import Platform
from repro.types import ModelError


class TestPlatform:
    def test_defaults_match_paper(self):
        pf = Platform(p=256, cache_size=32000e6)
        assert pf.latency_cache == 0.17
        assert pf.latency_memory == 1.0
        assert pf.alpha == 0.5

    @pytest.mark.parametrize("kw", [
        dict(p=0),
        dict(p=-1),
        dict(p=math.inf),
        dict(cache_size=0),
        dict(cache_size=-1),
        dict(latency_cache=-0.1),
        dict(latency_memory=-1.0),
        dict(alpha=0.0),
        dict(alpha=1.5),
    ])
    def test_rejects_invalid(self, kw):
        base = dict(p=4.0, cache_size=1e6)
        base.update(kw)
        with pytest.raises(ModelError):
            Platform(**base)

    def test_with_cache_size(self):
        pf = Platform(p=4, cache_size=1e6).with_cache_size(2e6)
        assert pf.cache_size == 2e6

    def test_with_latencies_partial(self):
        pf = Platform(p=4, cache_size=1e6).with_latencies(latency_cache=0.3)
        assert pf.latency_cache == 0.3
        assert pf.latency_memory == 1.0

    def test_frozen(self):
        with pytest.raises(AttributeError):
            Platform(p=4, cache_size=1e6).p = 8  # type: ignore[misc]

    def test_equality_ignores_name(self):
        a = Platform(p=4, cache_size=1e6, name="a")
        b = Platform(p=4, cache_size=1e6, name="b")
        assert a == b
