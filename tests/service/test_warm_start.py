"""Cross-restart warm starts: the disk tier under the decision service."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.service import AsyncServerThread, DecisionService, ServiceClient
from repro.service.protocol import request_from_payload

_KEYS_FILE = Path(__file__).with_name("metrics_keys.txt")


def _payload(seed: int = 7) -> dict:
    return {
        "applications": [
            {"name": "a0", "work": 1e9, "access_freq": 0.5, "miss_rate": 0.01},
            {"name": "a1", "work": 2e9},
        ],
        "platform": "taihulight",
        "scheduler": "dominant-minratio",
        "seed": seed,
    }


@pytest.fixture
def service_factory():
    services = []

    def build(**kw):
        service = DecisionService(**kw)
        services.append(service)
        return service

    yield build
    for service in services:
        service.close()


class TestWarmStart:
    def test_fresh_service_hits_from_disk(self, tmp_path, service_factory):
        first = service_factory(cache_dir=tmp_path)
        r1 = first.allocate(request_from_payload(_payload()))
        assert not r1.cache_hit

        # A brand-new service over the same directory — the restart.
        # Its very first repeated request is already a cache hit.
        fresh = service_factory(cache_dir=tmp_path)
        r2 = fresh.allocate(request_from_payload(_payload()))
        assert r2.cache_hit
        assert r2.decision == r1.decision
        st = fresh.cache.stats()
        assert (st.hits, st.misses, st.disk_hits) == (1, 0, 1)

    def test_env_var_configures_the_tier(self, tmp_path, monkeypatch,
                                         service_factory):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        warm = service_factory()
        warm.allocate(request_from_payload(_payload()))
        assert len(warm.cache.disk.entries()) == 1

        fresh = service_factory()
        assert fresh.allocate(request_from_payload(_payload())).cache_hit

    def test_memory_only_without_configuration(self, monkeypatch,
                                               service_factory):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        service = service_factory()
        assert service.cache.disk is None
        service.allocate(request_from_payload(_payload()))
        assert "decision_cache.disk_hits" not in service.metrics()

    def test_distinct_requests_do_not_cross_hit(self, tmp_path,
                                                service_factory):
        first = service_factory(cache_dir=tmp_path)
        first.allocate(request_from_payload(_payload()))

        fresh = service_factory(cache_dir=tmp_path)
        other = _payload()
        other["applications"][0]["work"] = 3e9  # a genuinely new request
        assert not fresh.allocate(request_from_payload(other)).cache_hit

    def test_failed_disk_write_is_counted(self, tmp_path):
        # A plain file where the decisions directory should be: every
        # disk write fails, the answer is still served from memory.
        (tmp_path / "decisions").write_text("not a directory")
        with AsyncServerThread(DecisionService(cache_dir=tmp_path)) as server:
            with pytest.warns(RuntimeWarning, match="could not store"):
                response = server.service.allocate(
                    request_from_payload(_payload()))
            assert not response.cache_hit
            assert response.decision.makespan > 0
            assert server.service.cache.store_errors == 1
            assert server.service.cache.stats().store_errors == 1
            metrics = ServiceClient(server.url).metrics()
            server.service.close()
        assert metrics["decision_cache.store_errors"] == 1


class TestMetricsKeyStability:
    """The committed key list is an interface: names never change."""

    def test_committed_keys_still_exported(self, service_factory):
        committed = set(_KEYS_FILE.read_text().split())
        assert committed, "metrics_keys.txt must not be empty"
        live = set(service_factory().metrics())
        missing = committed - live
        assert not missing, (
            f"/metrics keys disappeared or were renamed: {sorted(missing)} — "
            "these names are a scrape-time interface; add new keys instead")

    def test_disk_tier_only_adds_keys(self, tmp_path, service_factory):
        committed = set(_KEYS_FILE.read_text().split())
        live = set(service_factory(cache_dir=tmp_path).metrics())
        assert committed <= live
        assert live - committed == {
            "decision_cache.disk_hits",
            "decision_cache.store_errors",
            "decision_cache.disk_entries",
            "decision_cache.disk_bytes",
        }
