"""HTTP front end: golden equivalence with in-process evaluation.

The server answers from the same machinery a caller reaches in
process; these tests hold its wire answers to
:func:`~repro.service.compute_decision`, the scheduler registry and
the exceptions an in-process :meth:`DecisionService.allocate` raises
over a golden request suite (decisions, error shapes), and exercise
the transport itself (pipelined connections, hostile framing and
bytes, backpressure 503s).
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import selectors
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.core.registry import entries
from repro.service import (
    DecisionService,
    ServiceClient,
    ServiceError,
    compute_decision,
    request_from_payload,
)
from repro.service import protocol
from repro.service.aserver import AsyncDecisionServer, AsyncServerThread
from repro.types import ReproError


def _service() -> DecisionService:
    return DecisionService(cache_capacity=64, max_batch_size=8)


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


def _exchange(url: str, wire: bytes, count: int | None = None,
              ) -> list[tuple[bytes, bytes]]:
    """Send raw *wire* bytes on one connection; collect the responses.

    Reads ``(head, body)`` pairs until *count* arrived or, with no
    *count*, until the server closes the connection.
    """
    host, port = url.removeprefix("http://").split(":")
    responses: list[tuple[bytes, bytes]] = []
    buf = b""
    with socket.create_connection((host, int(port)), timeout=30) as sock:
        sock.sendall(wire)
        while count is None or len(responses) < count:
            chunk = sock.recv(65536)
            if not chunk:
                break
            buf += chunk
            while (head_end := buf.find(b"\r\n\r\n")) >= 0:
                head = buf[:head_end]
                length = int(re.search(rb"(?i)content-length: *(\d+)",
                                       head).group(1))
                total = head_end + 4 + length
                if len(buf) < total:
                    break
                responses.append((head, buf[head_end + 4:total]))
                buf = buf[total:]
    return responses


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
    (b"\x9e\x80", 400),  # not UTF-8
    (b"[" * 50_000, 400),  # nested past the parser's depth
]

_HEALTHZ = b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"


def _in_process_error(body: bytes) -> str:
    """The message an in-process evaluation of *body* fails with."""
    try:
        payload = json.loads(body)
    except (ValueError, RecursionError) as exc:
        return f"invalid JSON: {exc}"
    with DecisionService() as service:
        try:
            service.allocate(request_from_payload(payload))
        except ReproError as exc:
            return str(exc)
    raise AssertionError(f"{body!r} evaluated without error")


def _answered_then_healthy(url: str, wire: bytes) -> tuple[int, dict]:
    """Status and JSON body answering *wire*, with a /healthz behind it.

    The pipelined probe must get its own answer: a request that fails
    may not hang or drop the connection it came on.
    """
    (head, body), (health_head, health) = _exchange(url, wire + _HEALTHZ, 2)
    assert health_head.startswith(b"HTTP/1.1 200")
    assert json.loads(health) == {"status": "ok"}
    return int(head[9:12]), json.loads(body)


class TestGoldenEquivalence:
    def test_decisions_match_compute_decision(self, async_url):
        for payload in GOLDEN_PAYLOADS:
            status, resp = _post_raw(async_url, json.dumps(payload).encode())
            request = request_from_payload(payload)
            want = json.loads(json.dumps(compute_decision(request).to_payload()))
            assert status == 200
            assert resp["decision"] == want
            assert resp["request_id"] == request.fingerprint()

    def test_error_shapes_match(self, async_url):
        for body, expected_status in GOLDEN_ERRORS:
            wire = (b"POST /v1/allocate HTTP/1.1\r\nHost: t\r\n"
                    b"Content-Length: %d\r\n\r\n" % len(body) + body)
            status, resp = _answered_then_healthy(async_url, wire)
            assert status == expected_status
            assert resp["error"] == _in_process_error(body)

    def test_schedulers_endpoint_matches(self, async_url):
        want = [{"name": e.name, "randomized": e.randomized,
                 "description": e.description, "provenance": e.provenance}
                for e in entries()]
        assert ServiceClient(async_url).schedulers() == want

    def test_unknown_endpoint_404(self, async_url):
        with pytest.raises(ServiceError) as info:
            ServiceClient(async_url)._call("/v2/allocate", b"{}")
        assert info.value.status == 404
        # Request-line bytes that are not UTF-8 are echoed, replaced.
        for line, error in [
            (b"GET /\xff\xfe HTTP/1.1", "no such endpoint: /\ufffd\ufffd"),
            (b"POST /v\xff HTTP/1.1", "no such endpoint: /v\ufffd"),
            (b"G\xe9T /healthz HTTP/1.1", "unsupported method: G\ufffdT"),
        ]:
            wire = line + b"\r\nHost: t\r\nContent-Length: 0\r\n\r\n"
            assert _answered_then_healthy(async_url, wire) == (
                404, {"error": error})

    def test_healthz(self, async_url):
        assert ServiceClient(async_url).healthy()

    def test_empty_body_400(self, async_url):
        status, resp = _post_raw(async_url, b"")
        assert status == 400
        assert "empty" in resp["error"]

    def test_negative_content_length_400_and_close(self, async_url):
        # A negative length must not leave part of the header in the
        # buffer to be parsed as the pipelined request behind it.
        host, port = async_url.removeprefix("http://").split(":")
        wire = (b"POST /v1/allocate HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: -5\r\n\r\n"
                b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        with socket.create_connection((host, int(port)), timeout=30) as sock:
            sock.sendall(wire)
            received = b""
            while chunk := sock.recv(65536):
                received += chunk
        assert received.count(b"HTTP/1.1 ") == 1
        head, _, body = received.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400")
        assert json.loads(body) == {"error": "bad Content-Length"}

    @pytest.mark.parametrize("framing, error", [
        (b"Content-Length: 1_0", "bad Content-Length"),
        (b"Content-Length: +5", "bad Content-Length"),
        (b"Content-Length: 0x5", "bad Content-Length"),
        (b"Content-Length:", "bad Content-Length"),
        (b"Content-Length: " + b"9" * 5000, "bad Content-Length"),
        (b"Content-Length: 5\r\nContent-Length: 5", "bad Content-Length"),
        (b"Transfer-Encoding: chunked", "Transfer-Encoding is not supported"),
        (b"Transfer-Encoding: chunked\r\nContent-Length: 5",
         "Transfer-Encoding is not supported"),
    ], ids=["underscore", "plus", "hex", "empty", "5000-digits",
            "duplicate", "chunked", "chunked-with-length"])
    def test_bad_framing_400_and_close(self, async_url, framing, error):
        # Whatever follows a request whose body extent is unknown must
        # not be parsed as the next request: one 400, then the close.
        wire = (b"POST /v1/allocate HTTP/1.1\r\nHost: t\r\n" + framing
                + b"\r\n\r\n5\r\nhello\r\n0\r\n\r\n"
                b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        responses = _exchange(async_url, wire)
        assert len(responses) == 1
        head, body = responses[0]
        assert head.startswith(b"HTTP/1.1 400")
        assert json.loads(body) == {"error": error}

    def test_header_value_naming_content_length_is_not_framing(
            self, async_url):
        body = json.dumps(GOLDEN_PAYLOADS[0]).encode()
        wire = (b"POST /v1/allocate HTTP/1.1\r\nHost: t\r\n"
                b"X-Note: content-length: 5\r\n"
                b"Content-Length:  " + str(len(body)).encode() + b" \r\n"
                b"\r\n" + body
                + b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        (head, reply), (health_head, health) = _exchange(async_url, wire, 2)
        assert head.startswith(b"HTTP/1.1 200")
        assert json.loads(reply)["decision"] == compute_decision(
            request_from_payload(GOLDEN_PAYLOADS[0])).to_payload()
        assert health_head.startswith(b"HTTP/1.1 200")
        assert json.loads(health) == {"status": "ok"}

    @pytest.mark.parametrize("header, answered", [
        (b"Connection: close", 1),
        (b"connection:  Keep-Alive, CLOSE", 1),
        (b"X-Note: connection: close", 2),
        (b"Connection: keep-alive", 2),
    ])
    def test_connection_close_matched_by_name(self, async_url, header,
                                              answered):
        one = b"GET /healthz HTTP/1.1\r\nHost: t\r\n" + header + b"\r\n\r\n"
        two = b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
        responses = _exchange(async_url, one + two, 2)
        assert [head[:12] for head, _ in responses] == (
            [b"HTTP/1.1 200"] * answered)


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

    def test_repeats_count_in_metrics(self, async_url):
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
        bodies = [json.dumps(p).encode() for p in GOLDEN_PAYLOADS[:3]]
        wire = b"".join(
            b"POST /v1/allocate HTTP/1.1\r\nHost: t\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: " + str(len(b)).encode() + b"\r\n\r\n" + b
            for b in bodies)
        responses = [json.loads(body)
                     for _, body in _exchange(async_url, wire, 3)]
        assert len(responses) == 3, "connection closed early"
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

    def test_body_and_disk_share_one_encoding(self, tmp_path, monkeypatch):
        encodes = []
        encode = protocol.canonical_bytes
        monkeypatch.setattr(protocol, "canonical_bytes",
                            lambda payload: encodes.append(1) or encode(payload))
        service = DecisionService(cache_dir=tmp_path)
        server = AsyncDecisionServer(service)
        body = json.dumps(GOLDEN_PAYLOADS[0]).encode()
        try:
            raw = asyncio.run(server.handle_allocate(body))
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

    def test_body_decodes_to_the_payload(self):
        with DecisionService() as service:
            for payload in GOLDEN_PAYLOADS:
                response = service.allocate(request_from_payload(payload))
                assert json.loads(response.to_bytes()) == response.to_payload()


class TestBackpressure:
    @pytest.fixture
    def saturated_url(self):
        service = DecisionService(max_queue_depth=0)
        with AsyncServerThread(service) as server:
            yield server.url

    def test_503_with_retry_after(self, saturated_url):
        with pytest.raises(ServiceError) as info:
            ServiceClient(saturated_url).allocate(
                [{"work": 123.0}], "taihulight")
        assert info.value.status == 503
        assert info.value.retry_after_s is not None
        assert info.value.retry_after_s > 0

    def test_rejections_counted(self, saturated_url):
        client = ServiceClient(saturated_url)
        for _ in range(3):
            with pytest.raises(ServiceError):
                client.allocate([{"work": 55.0}], "taihulight")
        assert client.metrics()["batcher.rejected"] == 3


_SRC = str(Path(__file__).resolve().parents[2] / "src")


def _announced_url(proc: subprocess.Popen, timeout: float = 60.0) -> str:
    """The URL a ``repro serve`` subprocess announces on stderr."""
    deadline = time.monotonic() + timeout
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stderr, selectors.EVENT_READ)
        while time.monotonic() < deadline:
            if not sel.select(deadline - time.monotonic()):
                break
            line = proc.stderr.readline()
            if not line:
                break
            if "listening on " in line:
                return line.rsplit("listening on ", 1)[1].strip()
    raise AssertionError("repro serve announced no URL")


class TestPreforkShutdown:
    def test_sigterm_to_parent_stops_every_worker(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [_SRC, env.get("PYTHONPATH")]))
        env.pop("REPRO_CACHE_DIR", None)
        # Its own session, so cleanup can reach leftover children.
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--workers", "2",
             "--port", "0"],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            env=env, start_new_session=True)
        try:
            url = _announced_url(proc)
            for _ in range(200):
                try:
                    with urllib.request.urlopen(url + "/healthz",
                                                timeout=5) as resp:
                        if resp.status == 200:
                            break
                except OSError:
                    time.sleep(0.05)
            else:
                raise AssertionError("server never became healthy")
            proc.send_signal(signal.SIGTERM)
            returncode = proc.wait(timeout=10)
            host, port = url.removeprefix("http://").split(":")
            deadline = time.monotonic() + 5.0
            while True:
                try:
                    socket.create_connection((host, int(port)),
                                             timeout=1).close()
                except ConnectionRefusedError:
                    break  # no worker holds the shared socket any more
                assert time.monotonic() < deadline, (
                    "a worker still accepts connections after SIGTERM")
                time.sleep(0.05)
            assert returncode == 0
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait(timeout=10)
            proc.stderr.close()
