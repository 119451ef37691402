"""Async front end: golden equivalence with the threaded server.

Both front ends serve the same contract from the same
:class:`DecisionService` machinery; these tests drive them side by
side over a golden request suite (decisions, error shapes, metrics)
and exercise the async-only machinery (byte-level L0 cache, pipelined
connections, backpressure 503s).
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.service import DecisionService, ServiceClient, ServiceError
from repro.service import protocol
from repro.service.aserver import AsyncDecisionServer, AsyncServerThread
from repro.service.server import make_server


def _service() -> DecisionService:
    return DecisionService(cache_capacity=64, max_batch_size=8,
                           max_wait_ms=1.0, workers=2)


@pytest.fixture
def threaded_url():
    server = make_server(service=_service())
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}"
    server.shutdown()
    server.server_close()
    server.service.close()
    thread.join(5)


@pytest.fixture
def async_url():
    with AsyncServerThread(_service()) as server:
        yield server.url


def _post_raw(url: str, body: bytes) -> tuple[int, dict]:
    req = urllib.request.Request(
        url + "/v1/allocate", data=body,
        headers={"Content-Type": "application/json"}, method="POST")
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


GOLDEN_PAYLOADS = [
    {"applications": [{"work": 100.0}, {"work": 50.0, "miss_rate": 0.2}],
     "platform": "taihulight"},
    {"applications": [{"work": 200.0, "seq_fraction": 0.05}],
     "platform": "taihulight", "scheduler": "allproccache"},
    {"applications": [{"work": 80.0}, {"work": 90.0}, {"work": 70.0}],
     "platform": {"preset": "taihulight"}, "scheduler": "dominant-minratio"},
    {"applications": [{"work": 60.0}, {"work": 40.0}],
     "platform": "taihulight", "scheduler": "randompart", "seed": 7},
]

GOLDEN_ERRORS = [
    (b"{not json", 400),
    (json.dumps({"applications": [], "platform": "taihulight"}).encode(), 400),
    (json.dumps({"applications": [{"work": 1.0}],
                 "scheduler": "no-such"}).encode(), 400),
    (json.dumps({"applications": [{"work": -5.0}]}).encode(), 400),
]


class TestGoldenEquivalence:
    def test_decisions_match_threaded_server(self, threaded_url, async_url):
        for payload in GOLDEN_PAYLOADS:
            body = json.dumps(payload).encode()
            t_status, t_resp = _post_raw(threaded_url, body)
            a_status, a_resp = _post_raw(async_url, body)
            assert (t_status, a_status) == (200, 200)
            assert a_resp["decision"] == t_resp["decision"]
            assert a_resp["request_id"] == t_resp["request_id"]

    def test_error_shapes_match(self, threaded_url, async_url):
        for body, expected_status in GOLDEN_ERRORS:
            t_status, t_resp = _post_raw(threaded_url, body)
            a_status, a_resp = _post_raw(async_url, body)
            assert t_status == a_status == expected_status
            assert a_resp["error"] == t_resp["error"]

    def test_schedulers_endpoint_matches(self, threaded_url, async_url):
        t_list = ServiceClient(threaded_url).schedulers()
        a_list = ServiceClient(async_url).schedulers()
        assert a_list == t_list

    def test_unknown_endpoint_404(self, async_url):
        with pytest.raises(ServiceError) as info:
            ServiceClient(async_url)._call("/v2/allocate", b"{}")
        assert info.value.status == 404

    def test_healthz(self, async_url):
        assert ServiceClient(async_url).healthy()

    def test_empty_body_400(self, async_url):
        status, resp = _post_raw(async_url, b"")
        assert status == 400
        assert "empty" in resp["error"]


class TestAsyncServing:
    def test_repeat_is_cache_hit_with_fresh_latency(self, async_url):
        body = json.dumps(GOLDEN_PAYLOADS[0]).encode()
        _, first = _post_raw(async_url, body)
        _, second = _post_raw(async_url, body)
        _, third = _post_raw(async_url, body)
        assert not first["cache_hit"]
        assert second["cache_hit"] and third["cache_hit"]
        assert second["decision"] == first["decision"] == third["decision"]
        assert second["batch_size"] == 0 and not second["coalesced"]
        assert second["latency_ms"] > 0 and third["latency_ms"] > 0

    def test_bytecache_hits_count_in_metrics(self, async_url):
        client = ServiceClient(async_url)
        body = json.dumps(GOLDEN_PAYLOADS[2]).encode()
        for _ in range(4):
            _post_raw(async_url, body)
        metrics = client.metrics()
        assert metrics["decisions.total"] == 4
        assert metrics["decision_cache.hits"] == 3
        assert metrics["decision_cache.misses"] == 1
        assert metrics["latency.count"] == 4

    def test_metrics_text_has_histogram(self, async_url):
        with urllib.request.urlopen(async_url + "/metrics", timeout=30) as resp:
            text = resp.read().decode()
        assert "# TYPE repro_request_latency_seconds histogram" in text
        assert 'repro_request_latency_seconds_bucket{le="+Inf"}' in text
        assert "repro_request_latency_seconds_count" in text
        assert "repro_decisions_inflight" in text
        assert "repro_batcher_queue_depth" in text

    def test_pipelined_requests_answered_in_order(self, async_url):
        host, port = async_url.removeprefix("http://").split(":")
        bodies = [json.dumps(p).encode() for p in GOLDEN_PAYLOADS[:3]]
        wire = b"".join(
            b"POST /v1/allocate HTTP/1.1\r\nHost: t\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: " + str(len(b)).encode() + b"\r\n\r\n" + b
            for b in bodies)
        with socket.create_connection((host, int(port)), timeout=30) as sock:
            sock.sendall(wire)
            sock.settimeout(30)
            buf = b""
            responses = []
            while len(responses) < 3:
                chunk = sock.recv(65536)
                assert chunk, "connection closed early"
                buf += chunk
                while True:
                    head_end = buf.find(b"\r\n\r\n")
                    if head_end < 0:
                        break
                    head = buf[:head_end].lower()
                    idx = head.find(b"content-length:")
                    end = head.find(b"\r\n", idx)
                    length = int(head[idx + 15:end if end > 0 else None])
                    total = head_end + 4 + length
                    if len(buf) < total:
                        break
                    responses.append(json.loads(buf[head_end + 4:total]))
                    buf = buf[total:]
        # responses come back in request order, matched by fingerprint
        expected = [_post_raw(async_url, b)[1]["request_id"] for b in bodies]
        assert [r["request_id"] for r in responses] == expected

    def test_concurrent_clients(self, async_url):
        bodies = [json.dumps(p).encode() for p in GOLDEN_PAYLOADS]
        results = []
        lock = threading.Lock()

        def client(body):
            status, resp = _post_raw(async_url, body)
            with lock:
                results.append((status, resp["request_id"]))

        threads = [threading.Thread(target=client, args=(bodies[i % 4],))
                   for i in range(12)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(status == 200 for status, _ in results)
        assert len({rid for _, rid in results}) == 4


class TestOneEncoding:
    """A served miss encodes its decision once; every copy reuses it."""

    FLAGS = ("cache_hit", "coalesced", "batch_size", "latency_ms")

    def test_body_disk_and_replay_share_one_encoding(self, tmp_path,
                                                     monkeypatch):
        encodes = []
        encode = protocol.canonical_bytes
        monkeypatch.setattr(protocol, "canonical_bytes",
                            lambda payload: encodes.append(1) or encode(payload))
        service = DecisionService(cache_dir=tmp_path, max_wait_ms=0.0,
                                  workers=1)
        server = AsyncDecisionServer(service)
        body = json.dumps(GOLDEN_PAYLOADS[0]).encode()
        try:
            raw = asyncio.run(server.handle_allocate(body))
            replay = server.l0.get(body) + b"0.5}"
        finally:
            service.close()
        assert len(encodes) == 1
        head, _, fresh = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200")
        sent = json.loads(fresh)
        assert sent["cache_hit"] is False
        disk = service.cache.disk.path_for(sent["request_id"]).read_bytes()
        # The body embeds the disk file's bytes verbatim.
        assert fresh.split(b'"decision":', 1)[1].startswith(
            disk + b',"cache_hit":')
        again = json.loads(replay)
        assert ({k: v for k, v in again.items() if k not in self.FLAGS}
                == {k: v for k, v in sent.items() if k not in self.FLAGS})
        assert (again["cache_hit"], again["coalesced"], again["batch_size"],
                again["latency_ms"]) == (True, False, 0, 0.5)

    def test_body_decodes_to_the_payload(self):
        with DecisionService(max_wait_ms=0.0, workers=1) as service:
            for payload in GOLDEN_PAYLOADS:
                response = service.allocate_payload(payload)
                assert json.loads(response.to_bytes()) == response.to_payload()


class TestBackpressure:
    @pytest.fixture
    def saturated_url(self):
        service = DecisionService(max_queue_depth=0, max_wait_ms=0.0)
        with AsyncServerThread(service) as server:
            yield server.url

    def test_503_with_retry_after(self, saturated_url):
        with pytest.raises(ServiceError) as info:
            ServiceClient(saturated_url).allocate(
                [{"work": 123.0}], "taihulight")
        assert info.value.status == 503
        assert info.value.retry_after_s is not None
        assert info.value.retry_after_s > 0

    def test_503_on_threaded_server_too(self):
        server = make_server(
            service=DecisionService(max_queue_depth=0, max_wait_ms=0.0))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            with pytest.raises(ServiceError) as info:
                ServiceClient(f"http://{host}:{port}").allocate(
                    [{"work": 321.0}], "taihulight")
            assert info.value.status == 503
            assert info.value.retry_after_s is not None
        finally:
            server.shutdown()
            server.server_close()
            server.service.close()
            thread.join(5)

    def test_rejections_counted(self, saturated_url):
        client = ServiceClient(saturated_url)
        for _ in range(3):
            with pytest.raises(ServiceError):
                client.allocate([{"work": 55.0}], "taihulight")
        assert client.metrics()["batcher.rejected"] == 3
