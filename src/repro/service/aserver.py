"""asyncio HTTP front end: the service's one transport.

Endpoints
---------
``POST /v1/allocate``
    Body: a JSON allocation request (see
    :func:`repro.service.protocol.request_from_payload`) —
    ``applications`` (list of application objects), ``platform``
    (preset name, preset + overrides, or explicit parameters),
    ``scheduler`` (registry name), optional ``seed``.  Answers with
    the decision plus serving metadata; malformed input gets a 400
    with a JSON ``error`` body, overload a 503 with ``Retry-After``.
``GET /v1/schedulers``
    The scheduler registry with metadata (name, randomized,
    description, provenance), sorted by name.
``GET /metrics``
    All serving counters in Prometheus text exposition format
    (``repro_decisions_total``, ``repro_decision_cache_hits`` ...);
    append ``?format=json`` for the raw mapping.
``GET /healthz``
    Liveness probe.

Everything runs on one event loop, with no thread per request:

* Connections are ``asyncio.Protocol`` instances with a hand-rolled
  (request-sized, not general) HTTP/1.1 parser: no stream readers, no
  per-request task until a request actually needs the dispatcher.
* Every ``POST /v1/allocate`` body takes one path: parse,
  canonicalize, and await
  :meth:`~repro.service.core.DecisionService.allocate_async`, which
  fingerprints the request and answers a repeat from the decision
  cache's memory or disk tier; otherwise the event loop feeds the
  batcher, whose one thread evaluates what is queued whenever it is
  free (a request identical to one in flight rides on it).
  Per-connection response order is preserved by an outbox that
  interleaves ready bytes with pending tasks.
* A request that cannot be served still gets exactly one answer: a
  body that is not UTF-8 JSON (or nests past the parser's depth) is a
  400, an undecodable method or path is echoed with replacement
  characters in its 404.
* Multi-worker mode (``repro serve --workers N``) pre-forks:
  the parent binds the listening socket once (so ``port 0`` works and
  no ``SO_REUSEPORT`` support is assumed) and each child accepts from
  the shared socket on its own event loop with its own
  :class:`~repro.service.core.DecisionService`.

:class:`AsyncServerThread` runs the loop on a background thread for
tests and the in-process load harness.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import threading
from collections import deque
from typing import Callable

from ..core.registry import entries
from ..types import ReproError
from .batcher import QueueFullError
from .core import DecisionService
from .dispatcher import RequestError
from .metrics import render_metrics_text
from .protocol import MAX_BODY_BYTES, request_from_payload

__all__ = ["AsyncDecisionServer", "AsyncServerThread", "serve_async"]

#: Refuse header blocks beyond this size (we read only framing headers).
_MAX_HEADER_BYTES = 16 << 10

_JSON_CT = b"application/json; charset=utf-8"
_TEXT_CT = b"text/plain; version=0.0.4; charset=utf-8"

_STATUS_LINES = {
    200: b"200 OK",
    400: b"400 Bad Request",
    404: b"404 Not Found",
    413: b"413 Payload Too Large",
    500: b"500 Internal Server Error",
    503: b"503 Service Unavailable",
}


def _response(status: int, body: bytes, content_type: bytes = _JSON_CT,
              extra: bytes = b"") -> bytes:
    return (b"HTTP/1.1 " + _STATUS_LINES[status]
            + b"\r\nContent-Type: " + content_type
            + b"\r\nContent-Length: " + str(len(body)).encode()
            + b"\r\n" + extra + b"\r\n" + body)


def _error(status: int, message: str, extra: bytes = b"") -> bytes:
    return _response(status, json.dumps({"error": message}).encode(),
                     extra=extra)


_HEALTH = _response(200, b'{"status": "ok"}')


def _text(raw: bytes) -> str:
    """A request-line token for an error message, whatever its bytes."""
    return raw.decode(errors="replace")


class AsyncDecisionServer:
    """Route table + shared state for one event loop's connections."""

    def __init__(self, service: DecisionService):
        self.service = service
        # perfbench/serve.py's in-process replay probes ``server.l0``
        # before it calls handle_allocate; an empty mapping makes every
        # probe a miss.  Delete it with that probe.
        self.l0: dict = {}
        # The registry is process-static: render /v1/schedulers once.
        payload = [
            {
                "name": e.name,
                "randomized": e.randomized,
                "description": e.description,
                "provenance": e.provenance,
            }
            for e in entries()
        ]
        self._schedulers_response = _response(
            200, json.dumps({"schedulers": payload}).encode())

    def protocol_factory(self) -> "_HttpProtocol":
        return _HttpProtocol(self)

    # -- the allocate handler (one task per request) -----------------------
    async def handle_allocate(self, body: bytes) -> bytes:
        try:
            payload = json.loads(body)
        except (ValueError, RecursionError) as exc:
            # JSONDecodeError and a non-UTF-8 body's UnicodeDecodeError
            # are ValueErrors; nesting past the parser's depth recurses.
            return _error(400, f"invalid JSON: {exc}")
        try:
            request = request_from_payload(payload)
            response = await self.service.allocate_async(request)
        except QueueFullError as exc:
            return _error(
                503, str(exc),
                extra=b"Retry-After: %.3f\r\n" % exc.retry_after_s)
        except RequestError as exc:
            return _response(400, json.dumps(exc.to_payload()).encode())
        except ReproError as exc:
            return _error(400, str(exc))
        except Exception as exc:  # pragma: no cover - defensive
            return _error(500, f"internal error: {exc}")
        return _response(200, response.to_bytes())

    def metrics_response(self, query: bytes) -> bytes:
        metrics = self.service.metrics()
        if b"format=json" in query:
            return _response(200, json.dumps(metrics).encode())
        text = render_metrics_text(metrics, self.service)
        return _response(200, text.encode(), content_type=_TEXT_CT)

    @property
    def schedulers_response(self) -> bytes:
        return self._schedulers_response


class _HttpProtocol(asyncio.Protocol):
    """One keep-alive connection: parse, route, write in request order.

    The outbox preserves pipelining order: ready responses (byte
    strings) and pending ones (tasks) queue together, and the flush
    walks the front of the queue writing everything that is ready.
    """

    __slots__ = ("owner", "transport", "buf", "_outbox", "_closing")

    def __init__(self, owner: AsyncDecisionServer):
        self.owner = owner
        self.transport: asyncio.Transport | None = None
        self.buf = bytearray()
        self._outbox: deque = deque()
        self._closing = False

    # -- transport callbacks ----------------------------------------------
    def connection_made(self, transport) -> None:
        self.transport = transport

    def connection_lost(self, exc) -> None:
        self.transport = None

    def data_received(self, data: bytes) -> None:
        buf = self.buf
        buf += data
        while not self._closing:
            header_end = buf.find(b"\r\n\r\n")
            if header_end < 0:
                if len(buf) > _MAX_HEADER_BYTES:
                    self._reject(400, "header block too large")
                return
            lines = bytes(buf[:header_end]).split(b"\r\n")
            parts = lines[0].split()
            if len(parts) < 2:
                self._reject(400, "malformed request line")
                return
            method, target = parts[0], parts[1]
            length = None
            close = False
            for line in lines[1:]:
                name, _, value = line.partition(b":")
                name = name.strip().lower()
                if name == b"content-length":
                    value = value.strip()
                    # ASCII digits only (int() would take "+5", "1_0"
                    # and, past 4300 digits, raise), given once: else
                    # the body's extent is unknown and reading on
                    # would parse its bytes as the next request.
                    if (length is not None or not value.isdigit()
                            or len(value) > 18):
                        self._reject(400, "bad Content-Length")
                        return
                    length = int(value)
                elif name == b"transfer-encoding":
                    self._reject(400, "Transfer-Encoding is not supported")
                    return
                elif name == b"connection":
                    close = b"close" in [
                        token.strip() for token in value.lower().split(b",")]
            length = length or 0
            if length > MAX_BODY_BYTES:
                self._reject(413, f"body exceeds {MAX_BODY_BYTES} bytes")
                return
            total = header_end + 4 + length
            if len(buf) < total:
                return
            body = bytes(buf[header_end + 4:total])
            del buf[:total]
            self._route(method, target, body)
            if close:
                self._close_after_flush()
                return

    # -- routing -----------------------------------------------------------
    def _route(self, method: bytes, target: bytes, body: bytes) -> None:
        path, _, query = target.partition(b"?")
        if method == b"POST":
            if path != b"/v1/allocate":
                self._emit(_error(404, f"no such endpoint: {_text(path)}"))
                return
            if not body:
                self._emit(_error(400, "empty request body"))
                return
            task = asyncio.ensure_future(self.owner.handle_allocate(body))
            self._outbox.append(task)
            task.add_done_callback(self._flush)
        elif method == b"GET":
            if path == b"/healthz":
                self._emit(_HEALTH)
            elif path == b"/v1/schedulers":
                self._emit(self.owner.schedulers_response)
            elif path == b"/metrics":
                self._emit(self.owner.metrics_response(query))
            else:
                self._emit(_error(404, f"no such endpoint: {_text(path)}"))
        else:
            self._emit(_error(404, f"unsupported method: {_text(method)}"))

    # -- ordered write path ------------------------------------------------
    def _emit(self, response: bytes) -> None:
        if self._outbox:
            self._outbox.append(response)
        elif self.transport is not None:
            self.transport.write(response)

    def _flush(self, *_ignored) -> None:
        outbox = self._outbox
        transport = self.transport
        while outbox:
            item = outbox[0]
            if isinstance(item, (bytes, bytearray)):
                if transport is not None:
                    transport.write(item)
            elif item.done():
                if transport is not None:
                    transport.write(item.result())
            else:
                return
            outbox.popleft()
        if self._closing and transport is not None:
            transport.close()

    def _reject(self, status: int, message: str) -> None:
        """Answer a request whose framing is unusable, then close."""
        self._emit(_error(status, message))
        self._close_after_flush()

    def _close_after_flush(self) -> None:
        self._closing = True
        if not self._outbox and self.transport is not None:
            self.transport.close()


# -- entry points ----------------------------------------------------------
async def _serve_on_socket(sock: socket.socket,
                           service: DecisionService) -> None:
    loop = asyncio.get_running_loop()
    server = AsyncDecisionServer(service)
    srv = await loop.create_server(server.protocol_factory, sock=sock)
    try:
        async with srv:
            await srv.serve_forever()
    finally:
        service.close()


def serve_async(host: str = "127.0.0.1", port: int = 8765,
                service_factory: Callable[[], DecisionService] | None = None,
                *, workers: int = 1, announce=None) -> None:
    """Blocking asyncio serve loop (the ``repro serve`` entry point).

    The listening socket is bound once, *before* any fork, so ``port
    0`` reports a single real port and worker processes share one
    accept queue (the portable alternative to ``SO_REUSEPORT``).  Each
    worker builds its service after the fork — batcher threads and
    event loops never cross a fork boundary.  SIGTERM or ^C to the
    parent stops and reaps every worker.
    """
    factory = service_factory or DecisionService
    if workers < 1:
        raise ReproError(f"workers must be >= 1, got {workers}")
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind((host, port))
    sock.listen(2048)
    bound_host, bound_port = sock.getsockname()[:2]
    if announce is not None:
        label = "worker" if workers == 1 else "workers"
        announce(f"repro decision service (async, {workers} {label}) "
                 f"listening on http://{bound_host}:{bound_port}")
    if workers == 1:
        try:
            asyncio.run(_serve_on_socket(sock, factory()))
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            pass
        finally:
            sock.close()
        return
    # SIGTERM unwinds the parent like ^C, through the finally below
    # that stops and reaps every child; each child restores the
    # default handler, so the parent's SIGTERM simply ends it.
    previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
    pids = []
    try:
        for _ in range(workers):
            pid = os.fork()
            if pid == 0:  # child: serve until killed
                try:
                    signal.signal(signal.SIGTERM, signal.SIG_DFL)
                    asyncio.run(_serve_on_socket(sock, factory()))
                except KeyboardInterrupt:
                    pass
                finally:
                    os._exit(0)
            pids.append(pid)
        sock.close()
        for pid in pids:
            os.waitpid(pid, 0)
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
        sock.close()
        for pid in pids:
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
        for pid in pids:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass


class AsyncServerThread:
    """An async server on a background thread (tests, in-process bench).

    Owns (and closes) its :class:`DecisionService` unless one is
    passed in.  ``url`` is ready as soon as the constructor returns.
    """

    def __init__(self, service: DecisionService | None = None,
                 host: str = "127.0.0.1", port: int = 0):
        self.service = service if service is not None else DecisionService()
        self._owns_service = service is None
        self._loop = asyncio.new_event_loop()
        self._started = threading.Event()
        self._startup_error: BaseException | None = None
        self.url = ""
        self._thread = threading.Thread(
            target=self._run, args=(host, port),
            name="repro-aserver", daemon=True)
        self._thread.start()
        self._started.wait(10.0)
        if self._startup_error is not None:
            raise self._startup_error
        if not self.url:
            raise ReproError("async server failed to start within 10s")

    def _run(self, host: str, port: int) -> None:
        loop = self._loop
        asyncio.set_event_loop(loop)
        server = AsyncDecisionServer(self.service)
        try:
            srv = loop.run_until_complete(
                loop.create_server(server.protocol_factory, host, port))
        except BaseException as exc:
            self._startup_error = exc
            self._started.set()
            loop.close()
            return
        bound = srv.sockets[0].getsockname()[:2]
        self.url = f"http://{bound[0]}:{bound[1]}"
        self._started.set()
        try:
            loop.run_forever()
        finally:
            srv.close()
            loop.run_until_complete(srv.wait_closed())
            loop.close()

    def close(self) -> None:
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(10.0)
        if self._owns_service:
            self.service.close()

    def __enter__(self) -> "AsyncServerThread":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
