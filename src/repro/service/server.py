"""HTTP front end: stdlib ``http.server`` JSON API over the service.

Endpoints
---------
``POST /v1/allocate``
    Body: a JSON allocation request (see
    :func:`repro.service.protocol.request_from_payload`) —
    ``applications`` (list of application objects), ``platform``
    (preset name, preset + overrides, or explicit parameters),
    ``scheduler`` (registry name), optional ``seed``.  Answers with
    the decision plus serving metadata; malformed input gets a 400
    with a JSON ``error`` body.
``GET /v1/schedulers``
    The scheduler registry with metadata (name, randomized,
    description, provenance), sorted by name.
``GET /metrics``
    All serving counters in Prometheus text exposition format
    (``repro_decisions_total``, ``repro_decision_cache_hits`` ...);
    append ``?format=json`` for the raw mapping.

The server is a ``ThreadingHTTPServer`` — one thread per in-flight
request — which is exactly the concurrency the batcher feeds on:
simultaneous handler threads block on their futures while the
collector coalesces their requests into batches.

:func:`make_server` binds without serving (port 0 friendly, used by
tests); :func:`serve` is the blocking convenience the CLI calls.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from ..core.registry import entries
from ..types import ReproError
from .batcher import QueueFullError
from .core import DecisionService
from .dispatcher import RequestError

__all__ = ["make_server", "serve", "ServiceHTTPServer"]

#: Refuse request bodies beyond this size (1 MiB ~ thousands of apps).
MAX_BODY_BYTES = 1 << 20


def _prometheus_name(key: str) -> str:
    """``decision_cache.hit_rate`` -> ``repro_decision_cache_hit_rate``."""
    return "repro_" + key.replace(".", "_").replace("-", "_")


def render_metrics_text(metrics: dict[str, float],
                        service: DecisionService | None = None) -> str:
    """Prometheus text exposition of the service counter mapping.

    With *service*, the request-latency histogram is appended as a
    native Prometheus histogram (``_bucket{le=...}``/``_sum``/
    ``_count`` series) alongside the gauge-rendered counters.
    """
    lines = []
    for key in sorted(metrics):
        name = _prometheus_name(key)
        lines.append(f"# TYPE {name} gauge")
        value = float(metrics[key])
        lines.append(f"{name} {value:.10g}")
    if service is not None:
        lines.extend(
            service.latency.prometheus_lines("repro_request_latency_seconds"))
    return "\n".join(lines) + "\n"


class ServiceHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server owning a :class:`DecisionService`."""

    daemon_threads = True

    def __init__(self, address: tuple[str, int], service: DecisionService):
        self.service = service
        super().__init__(address, _Handler)


class _Handler(BaseHTTPRequestHandler):
    server: ServiceHTTPServer
    protocol_version = "HTTP/1.1"

    # -- plumbing ----------------------------------------------------------
    def log_message(self, fmt: str, *args: Any) -> None:  # pragma: no cover
        pass  # stay quiet; /metrics is the observability surface

    def _send(self, status: int, body: bytes, content_type: str,
              extra_headers: dict[str, str] | None = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, payload: Any,
                   extra_headers: dict[str, str] | None = None) -> None:
        self._send(status, json.dumps(payload).encode(),
                   "application/json; charset=utf-8", extra_headers)

    def _send_error_json(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    # -- routes ------------------------------------------------------------
    def do_GET(self) -> None:
        path, _, query = self.path.partition("?")
        if path == "/v1/schedulers":
            payload = [
                {
                    "name": e.name,
                    "randomized": e.randomized,
                    "description": e.description,
                    "provenance": e.provenance,
                }
                for e in entries()
            ]
            self._send_json(200, {"schedulers": payload})
        elif path == "/metrics":
            service = self.server.service
            metrics = service.metrics()
            if "format=json" in query:
                self._send_json(200, metrics)
            else:
                self._send(200, render_metrics_text(metrics, service).encode(),
                           "text/plain; version=0.0.4; charset=utf-8")
        elif path == "/healthz":
            self._send_json(200, {"status": "ok"})
        else:
            self._send_error_json(404, f"no such endpoint: {path}")

    def do_POST(self) -> None:
        path = self.path.partition("?")[0]
        if path != "/v1/allocate":
            self._send_error_json(404, f"no such endpoint: {path}")
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            # An unread body would desync a keep-alive connection (its
            # bytes get parsed as the next request line) — close it.
            self.close_connection = True
            self._send_error_json(400, "bad Content-Length")
            return
        if length <= 0:
            self.close_connection = True
            self._send_error_json(400, "empty request body")
            return
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            self._send_error_json(413, f"body exceeds {MAX_BODY_BYTES} bytes")
            return
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as exc:
            self._send_error_json(400, f"invalid JSON: {exc}")
            return
        try:
            response = self.server.service.allocate_payload(payload)
        except QueueFullError as exc:
            self._send_json(503, {"error": str(exc)},
                            {"Retry-After": f"{exc.retry_after_s:.3f}"})
            return
        except RequestError as exc:
            self._send_json(400, exc.to_payload())
            return
        except ReproError as exc:
            self._send_error_json(400, str(exc))
            return
        except Exception as exc:  # pragma: no cover - defensive
            self._send_error_json(500, f"internal error: {exc}")
            return
        self._send(200, response.to_bytes(),
                   "application/json; charset=utf-8")


def make_server(host: str = "127.0.0.1", port: int = 0,
                service: DecisionService | None = None) -> ServiceHTTPServer:
    """Bind (but do not serve); ``port=0`` picks a free port."""
    return ServiceHTTPServer((host, port), service or DecisionService())


def serve(host: str = "127.0.0.1", port: int = 8765,
          service: DecisionService | None = None,
          *, announce=None) -> None:
    """Blocking serve loop (the ``repro serve`` entry point)."""
    server = make_server(host, port, service)
    if announce is not None:
        bound_host, bound_port = server.server_address[:2]
        announce(f"repro decision service listening on "
                 f"http://{bound_host}:{bound_port}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    finally:
        server.server_close()
        server.service.close()
