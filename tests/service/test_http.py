"""End-to-end tests of the HTTP front end and the thin client."""

from __future__ import annotations

import json
import urllib.request

import pytest

from repro.machine import taihulight
from repro.service import (
    AsyncServerThread,
    DecisionService,
    ServiceClient,
    ServiceError,
)
from repro.service.metrics import render_metrics_text
from repro.types import ReproError
from repro.workloads import npb6


@pytest.fixture(scope="module")
def server():
    service = DecisionService(cache_capacity=64, max_batch_size=4)
    with AsyncServerThread(service) as httpd:
        yield httpd
    service.close()


@pytest.fixture(scope="module")
def client(server):
    return ServiceClient(server.url)


class TestAllocateEndpoint:
    def test_allocate_and_warm_repeat(self, client):
        wl = npb6(seq_range=None)
        first = client.allocate(wl, "taihulight", scheduler="dominant-minratio")
        again = client.allocate(wl, "taihulight", scheduler="dominant-minratio")
        decision = first["decision"]
        assert decision["scheduler"] == "dominant-minratio"
        assert len(decision["procs"]) == wl.n
        assert sum(decision["procs"]) <= taihulight().p * (1 + 1e-9)
        assert sum(decision["cache"]) <= 1 + 1e-9
        assert decision["makespan"] == pytest.approx(max(decision["times"]))
        # warm repeat: same id, served from the decision cache
        assert again["request_id"] == first["request_id"]
        assert again["cache_hit"] is True
        assert again["decision"] == decision

    def test_allocate_with_custom_platform_mapping(self, client):
        reply = client.allocate(
            [{"work": 1e9, "access_freq": 0.5, "miss_rate": 0.01}],
            {"p": 8.0, "cache_size": 2e7},
        )
        assert reply["decision"]["procs"] == [8.0]

    def test_bad_payload_is_400(self, client):
        with pytest.raises(ServiceError) as err:
            client.allocate([{"work": 1e9}], "nonexistent-platform")
        assert err.value.status == 400
        assert "unknown platform preset" in str(err.value)

    def test_unknown_scheduler_is_400(self, client):
        with pytest.raises(ServiceError) as err:
            client.allocate([{"work": 1e9}], "taihulight", scheduler="magic")
        assert err.value.status == 400

    def test_invalid_json_is_400(self, server):
        req = urllib.request.Request(
            server.url + "/v1/allocate", data=b"not json{",
            headers={"Content-Type": "application/json"}, method="POST")
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req)
        assert err.value.code == 400

    def test_empty_body_is_400(self, server):
        req = urllib.request.Request(
            server.url + "/v1/allocate", data=b"", method="POST")
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req)
        assert err.value.code == 400


class TestOtherEndpoints:
    def test_schedulers_listing(self, client):
        listing = client.schedulers()
        names = [e["name"] for e in listing]
        assert names == sorted(names)
        assert "dominant-minratio" in names
        by_name = {e["name"]: e for e in listing}
        assert by_name["randompart"]["randomized"] is True
        assert by_name["fair"]["provenance"]

    def test_metrics_json(self, client):
        wl = npb6(seq_range=None)
        client.allocate(wl, "taihulight")
        metrics = client.metrics()
        assert metrics["decisions.total"] >= 1
        assert metrics["decision_cache.capacity"] == 64
        assert "batcher.batches" in metrics

    def test_metrics_prometheus_text(self, server):
        with urllib.request.urlopen(server.url + "/metrics") as resp:
            assert resp.headers["Content-Type"].startswith("text/plain")
            text = resp.read().decode()
        assert "# TYPE repro_decisions_total gauge" in text
        assert "repro_decision_cache_hits" in text
        # every value line parses as a float
        for line in text.strip().splitlines():
            if not line.startswith("#"):
                name, value = line.split()
                float(value)

    def test_healthz(self, client):
        assert client.healthy() is True

    def test_unknown_path_is_404(self, client):
        with pytest.raises(ServiceError) as err:
            client._call("/v2/allocate")
        assert err.value.status == 404

    def test_unreachable_server_raises_repro_error(self):
        dead = ServiceClient("http://127.0.0.1:1", timeout=0.5)
        with pytest.raises(ReproError, match="cannot reach"):
            dead.metrics()
        assert dead.healthy() is False


class TestMetricsRendering:
    def test_render_names_and_values(self):
        text = render_metrics_text({"decision_cache.hit_rate": 0.5,
                                    "decisions.total": 3})
        lines = text.strip().splitlines()
        assert "repro_decision_cache_hit_rate 0.5" in lines
        assert "repro_decisions_total 3" in lines

    def test_output_is_sorted_and_terminated(self):
        text = render_metrics_text({"b.x": 1, "a.y": 2})
        assert text.index("repro_a_y") < text.index("repro_b_x")
        assert text.endswith("\n")


class TestRequestObjectThroughClient:
    def test_allocation_request_passthrough(self, client):
        from repro.service import AllocationRequest

        req = AllocationRequest(applications=tuple(npb6(seq_range=None)),
                                platform=taihulight(), scheduler="fair")
        reply = client.allocate(req)
        assert reply["request_id"] == req.fingerprint()
        assert json.dumps(reply)  # fully JSON-serializable
