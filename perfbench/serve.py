"""serve-mixed and serve-burst: the HTTP decision service under closed-loop load.

The server is ``repro serve --async --workers 1`` in its own process with
a fresh ``--cache-dir``.  This process is the only client: one thread,
``CONNECTIONS`` keep-alive connections, each keeping a fixed window of
requests outstanding (closed loop: the next request goes out only when
a response comes back).  Every request body is built before the timed
window opens.

serve-mixed (window 1) interleaves three classes, by seeded draw:

``l0``
    exact repeats of a warmed hot set, answered by the front end's
    byte cache before parsing;
``hit``
    the same hot set with each application's keys in another order, so
    the bytes are new but the fingerprint is not: parse, fingerprint,
    memory-tier hit.  The variants cycle through a pool larger than the
    byte cache, so a variant is always evicted before it comes back;
``miss``
    novel requests: batcher linger, compute, write-through to disk.
    A seeded quarter of the novel templates name ``fair``, a scheduler
    without a vectorized ``batch_fn``, so that in a multi-request batch
    the dispatcher runs them on its thread pool; the rest name
    ``dominant-minratio``, which the dispatcher evaluates as one batch
    call.

serve-burst (window 8) sends novel requests, so the batcher forms
multi-request batches and the novel set outgrows the memory tier.  A
seeded eighth of them is followed at once by a ``twin``: the same
request with other bytes (a leading space), so it passes the byte
cache, and, arriving while its original is still in flight, is
coalesced onto it by the batcher.

Every request body is built at the start of the measured call, before
its timed window opens, so set-up does not grow with the time budget.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import selectors
import socket
import subprocess
import sys
import time
import types
from collections import deque
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.cache import disk as cache_disk
from repro.cache import tiered
from repro.service import aserver, batcher, dispatcher, protocol
from repro.service import DecisionService
from repro.workloads.synthetic import generate

from stats import (ALL_CPUS, derive_seed, dir_bytes, median, percentile, probe_every_cpu,
                   proc_cpu_s, proc_peak_rss_mb, scale, thread_cpu_s)

CONNECTIONS = 2
APPS = 16
HOT = 64
#: Key-order variants per application; 8 ** APPS unique bodies per hot request.
VARIANTS = 8
#: Distinct reformatted bodies cycled through: twice the server's byte cache.
HIT_POOL = 8192
#: serve-mixed class shares (l0, hit, miss): the median falls in the hit class.
MIX = {"l0": 0.3, "hit": 0.5, "miss": 0.2}
#: serve-burst: share of novel requests followed by an in-flight twin.
TWIN_SHARE = 0.125
#: Novel templates naming POOL_SCHEDULER (no batch_fn: the dispatcher pool).
POOL_TEMPLATES = HOT // 4
WINDOW = {"serve-mixed": 1, "serve-burst": 8}
#: Bodies prebuilt per second of budget: well above the rate either mix reaches.
RATE_CAP = {"serve-mixed": 3000, "serve-burst": 1200}
WARMUP_REQUESTS = 100
#: Served responses per class compared with an in-process computation.
CHECKS_PER_CLASS = 25
#: Requests per in-process replay (traced run only).
REPLAY_REQUESTS = {"serve-mixed": 6000, "serve-burst": 2000}
TAIL_Q = 99.0
#: Timed speed probes on the server's CPU at every 1-s bin boundary.
PROBES_PER_CPU = 6
PLATFORM = "taihulight"
SCHEDULER = "dominant-minratio"
POOL_SCHEDULER = "fair"
READY_TIMEOUT_S = 60.0
#: Placeholder work value, split out of a novel request's template.
_MARK = 1.2345678901234567e300


def _app_dict(app) -> dict:
    return {"name": app.name, "work": float(app.work),
            "seq_fraction": float(app.seq_fraction),
            "access_freq": float(app.access_freq), "miss_rate": float(app.miss_rate),
            "baseline_cache": float(app.baseline_cache)}


def _body(app_fragments, scheduler: str = SCHEDULER) -> bytes:
    return (b'{"applications": [' + b", ".join(app_fragments)
            + b'], "platform": "%s", "scheduler": "%s"}'
            % (PLATFORM.encode(), scheduler.encode()))


class RequestSet:
    """Hot set, key-order variants and novel requests, all from one seed."""

    def __init__(self, seed: int):
        rng = np.random.default_rng(derive_seed(seed, 10))
        self.rng = rng
        self.hot_apps = [[_app_dict(a) for a in generate("npb-synth", APPS, rng)]
                         for _ in range(HOT)]
        self.hot = [_body([json.dumps(a).encode() for a in apps])
                    for apps in self.hot_apps]
        # variants[h][j][v]: application j of hot request h, key order v.
        self.variants = []
        for apps in self.hot_apps:
            per_app = []
            for app in apps:
                keys = list(app)
                orders = [keys[::-1]] + [list(rng.permutation(keys))
                                         for _ in range(VARIANTS - 1)]
                per_app.append([json.dumps({k: app[k] for k in order}).encode()
                                for order in orders])
            self.variants.append(per_app)
        # Novel requests: one of HOT base workloads with its first
        # application's work scaled by a never-repeated factor; the body
        # is the base's bytes split around that one number.
        pooled = set(rng.choice(HOT, size=POOL_TEMPLATES, replace=False).tolist())
        self.novel_parts = []
        for t in range(HOT):
            apps = [_app_dict(a) for a in generate("npb-synth", APPS, rng)]
            work = apps[0]["work"]
            apps[0]["work"] = _MARK
            scheduler = POOL_SCHEDULER if t in pooled else SCHEDULER
            head, tail = _body([json.dumps(a).encode() for a in apps], scheduler).split(
                repr(_MARK).encode())
            self.novel_parts.append((head, tail, work))
        self._hit_counter = itertools.count(1)
        self._novel_counter = itertools.count(1)

    def hit_body(self, h: int) -> bytes:
        i = next(self._hit_counter)
        return _body([self.variants[h][j][(i // VARIANTS ** j) % VARIANTS]
                      for j in range(APPS)])

    def novel_body(self) -> bytes:
        """A request no earlier body shares a fingerprint with."""
        k = next(self._novel_counter)
        head, tail, work = self.novel_parts[k % HOT]
        return head + repr(work * (1.0 + k * 1e-9)).encode() + tail

    def stream(self, workload: str, n: int) -> list[tuple[str, bytes]]:
        """(class, body) pairs in send order: *n* of them, plus serve-burst's twins."""
        if workload == "serve-burst":
            out = []
            for twin in self.rng.random(n) < TWIN_SHARE:
                out.append(("miss", self.novel_body()))
                if twin:
                    out.append(("twin", b" " + out[-1][1]))
            return out
        classes = self.rng.choice(list(MIX), size=n, p=list(MIX.values()))
        hit_pool = [self.hit_body(h % HOT) for h in range(min(HIT_POOL, n))]
        hot_picks = self.rng.integers(0, HOT, size=n)
        out, hits = [], 0
        for cls, h in zip(classes, hot_picks):
            if cls == "l0":
                out.append(("l0", self.hot[h]))
            elif cls == "hit":
                out.append(("hit", hit_pool[hits % len(hit_pool)]))
                hits += 1
            else:
                out.append(("miss", self.novel_body()))
        return out


# -- HTTP ---------------------------------------------------------------------

def _request_bytes(method: bytes, path: bytes, body: bytes = b"") -> bytes:
    return (b"%s %s HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (method, path, len(body), body))


class _Conn:
    __slots__ = ("sock", "inflight", "buf")

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.inflight: deque = deque()
        self.buf = bytearray()

    def responses(self):
        """Complete (status, body) responses buffered so far."""
        buf = self.buf
        while True:
            end = buf.find(b"\r\n\r\n")
            if end < 0:
                return
            head = bytes(buf[:end]).lower()
            length = 0
            idx = head.find(b"content-length:")
            if idx >= 0:
                line_end = head.find(b"\r\n", idx)
                length = int(head[idx + 15:line_end if line_end >= 0 else len(head)])
            if len(buf) < end + 4 + length:
                return
            status = int(head[9:12])
            body = bytes(buf[end + 4:end + 4 + length])
            del buf[:end + 4 + length]
            yield status, body


def http_get(port: int, path: str) -> tuple[int, bytes]:
    conn = _Conn(port)
    try:
        conn.sock.sendall(_request_bytes(b"GET", path.encode()))
        while True:
            for response in conn.responses():
                return response
            chunk = conn.sock.recv(65536)
            if not chunk:
                raise ConnectionError(f"server closed the connection on GET {path}")
            conn.buf += chunk
    finally:
        conn.sock.close()


def drive(port: int, stream, window: int, seconds: float, on_response=None,
          probe=None) -> dict:
    """Closed loop over CONNECTIONS connections with *window* requests each.

    Time is kept in 1-s bins of *active* time.  With *probe*, every bin
    opens with a speed probe taken while the server is idle: at the bin
    boundary no new request goes out, the in-flight ones drain, the
    probe runs, and its own duration is left out of the active time.
    Sends until *seconds* of active time pass or *stream* runs out.
    Returns per-request records ``(class, latency s, bin, status)``, the
    probes, and whether the stream ran out.
    """
    sel = selectors.DefaultSelector()
    conns = [_Conn(port) for _ in range(CONNECTIONS)]
    records, probes = [], []
    position = 0
    paused = 0.0
    start = perf_counter()

    def active() -> float:
        return perf_counter() - start - paused

    def send(conn) -> None:
        nonlocal position
        cls, body = stream[position]
        conn.inflight.append((perf_counter(), cls, position))
        position += 1
        conn.sock.sendall(_request_bytes(b"POST", b"/v1/allocate", body))

    def open_bin() -> None:
        nonlocal paused
        if probe is not None:
            t0 = perf_counter()
            probes.append(probe())
            paused += perf_counter() - t0
        for conn in conns:
            while len(conn.inflight) < window and position < len(stream):
                send(conn)

    try:
        for conn in conns:
            sel.register(conn.sock, selectors.EVENT_READ, conn)
        open_bin()
        while any(conn.inflight for conn in conns):
            for key, _ in sel.select(timeout=READY_TIMEOUT_S):
                conn = key.data
                chunk = conn.sock.recv(262144)
                if not chunk:
                    raise ConnectionError("server closed a benchmark connection")
                conn.buf += chunk
                for status, body in conn.responses():
                    now = perf_counter()
                    sent, cls, index = conn.inflight.popleft()
                    elapsed = active()
                    records.append((cls, now - sent, int(elapsed), status))
                    if on_response is not None:
                        on_response(index, status, body)
                    if (elapsed < seconds and position < len(stream)
                            and (probe is None or elapsed < len(probes))):
                        send(conn)
            if (probe is not None and len(probes) <= active() < seconds
                    and not any(conn.inflight for conn in conns)):
                open_bin()
    finally:
        sel.close()
        for conn in conns:
            conn.sock.close()
    return {"records": records, "probes": probes, "exhausted": position >= len(stream)}


# -- the workload -------------------------------------------------------------

def split_cpus() -> tuple[set[int], set[int]]:
    """(server CPUs, client CPUs): the last CPU for the server, the rest for this client.

    The server's threads then take turns on one CPU instead of trading
    the interpreter lock across two CPUs that the client also uses, and
    the client never preempts them.  With one CPU both share it.
    """
    cpus = sorted(ALL_CPUS)
    if len(cpus) < 2:
        return set(cpus), set(cpus)
    return {cpus[-1]}, set(cpus[:-1])


class ServeWorkload:
    def __init__(self, name: str, seed: int, seconds: float, workdir: Path):
        self.name = name
        self.window = WINDOW[name]
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.stderr_path = workdir / "server.stderr"
        self.server_cpus, client_cpus = split_cpus()
        # Start the server first: it boots while this process builds inputs.
        with open(self.stderr_path, "wb") as err:
            self.server = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--async", "--workers", "1",
                 "--port", "0", "--cache-dir", str(workdir / "server-cache")],
                stdout=subprocess.DEVNULL, stderr=err,
                preexec_fn=lambda: os.sched_setaffinity(0, self.server_cpus))
        os.sched_setaffinity(0, client_cpus)
        try:
            self.requests = RequestSet(seed)
            self.sent_ok = 0
            self.samples: dict[str, list[tuple[bytes, bytes]]] = {}
            self.failures: list[str] = []
            self.counts: dict[str, float] = {}
            self.port = self._wait_ready()
            self._warm_up()
        except BaseException:
            self._stop()
            raise

    # -- server lifecycle -----------------------------------------------
    def _wait_ready(self) -> int:
        deadline = time.monotonic() + READY_TIMEOUT_S
        port = None
        while port is None:
            if self.server.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("server did not start:\n"
                                   + self.stderr_path.read_text(errors="replace"))
            text = self.stderr_path.read_text(errors="replace")
            if "listening on http://" in text:
                port = int(text.split("listening on http://", 1)[1].split()[0].rsplit(":", 1)[1])
            else:
                time.sleep(0.005)
        while True:
            try:
                if http_get(port, "/healthz")[0] == 200:
                    return port
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("server never answered /healthz")
            time.sleep(0.005)

    def _warm_up(self) -> None:
        """Compute the hot set (filling the byte cache), then run every path."""
        if self.name == "serve-mixed":
            self._run_stream([("l0", body) for body in self.requests.hot], 1, 3600.0)
        self._run_stream(self.requests.stream(self.name, WARMUP_REQUESTS), self.window,
                         3600.0)

    def _run_stream(self, stream, window, seconds, sample=False, probe=None) -> dict:
        def on_response(index, status, body):
            if status == 200:
                self.sent_ok += 1
                cls, sent = stream[index]
                bucket = self.samples.setdefault(cls, [])
                if sample and len(bucket) < CHECKS_PER_CLASS and index % 7 == 0:
                    bucket.append((sent, body))

        return drive(self.port, stream, window, seconds, on_response, probe)

    def _stop(self) -> None:
        if self.server.poll() is None:
            self.server.terminate()
            try:
                self.server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()

    def close(self) -> float:
        try:
            return proc_peak_rss_mb(self.server.pid)
        finally:
            self._stop()

    # -- end-to-end measurement -----------------------------------------
    def measure(self, seconds: float) -> dict:
        stream = self.requests.stream(self.name, int(RATE_CAP[self.name] * seconds))
        # The event loop runs on the server's main thread (thread id = pid).
        pid = self.server.pid
        cpu0, loop0 = proc_cpu_s(pid), thread_cpu_s(pid, pid)
        # The server's speed, probed while it is idle: it alone runs on those CPUs.
        run = self._run_stream(stream, self.window, seconds, sample=True,
                               probe=lambda: probe_every_cpu(PROBES_PER_CPU, self.server_cpus))
        cpu, loop_cpu = proc_cpu_s(pid) - cpu0, thread_cpu_s(pid, pid) - loop0
        records = run["records"]
        bins = [0] * min(int(seconds), len(run["probes"]))
        for _, _, b, status in records:
            if status == 200 and b < len(bins):
                bins[b] += 1
        latencies = [r[1] * 1e3 for r in records]
        by_class: dict[str, list[float]] = {}
        for cls, latency, _, _ in records:
            by_class.setdefault(cls, []).append(latency * 1e3)
        ok = sum(r[3] == 200 for r in records)
        samples = f"{len(bins)} 1-s bins"
        if run["exhausted"]:
            samples += " (request pool exhausted)"
        raw = {"throughput_per_s": sum(bins) / len(bins), "p50_ms": median(latencies),
               "tail_ms": percentile(latencies, TAIL_Q), "cpu_ms_per_op": cpu / ok * 1e3}
        out = scale(raw, run["probes"])
        # The p99 is set by waits that do not scale with CPU speed (batcher
        # linger, thread hand-offs, disk writes): over six sets of 30-s seeds
        # its spread was 0.08-0.13 unscaled and 0.12-0.19 scaled.
        out["tail_ms"] = raw["tail_ms"]
        raw["loop_cpu_ms_per_op"] = loop_cpu / ok * 1e3
        factor = out["speed_factor"]
        named = {"decisions_per_s": (out["throughput_per_s"], "1/s", samples)}
        for cls, values in by_class.items():
            named[f"{cls}_p50_ms"] = (median(values) / factor, "ms", f"{len(values)} requests")
        metrics = self._scrape()
        self.counts = {k: metrics[k] for k in sorted(metrics)
                       if k.startswith(("decisions.", "decision_cache.", "batcher."))}
        if metrics["decisions.total"] != self.sent_ok:
            self.failures.append(f"server counted {metrics['decisions.total']} decisions, "
                                 f"the client received {self.sent_ok} answers")
        return {
            **out,
            "ops": len(records),
            "attempted": len(records),
            "failed": len(records) - ok,
            "throughput_samples": samples,
            "tail_q": TAIL_Q,
            "latency_samples": len(latencies),
            "class_p50_ms": {cls: median(v) for cls, v in by_class.items()},
            "named": named,
            "counts": self.counts,
        }

    def _scrape(self) -> dict:
        status, body = http_get(self.port, "/metrics?format=json")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return json.loads(body)

    # -- output check ---------------------------------------------------
    def check(self) -> tuple[int, list[str]]:
        """Served decisions equal an in-process compute of the same body."""
        failures, checked = list(self.failures), 1
        for cls, pairs in sorted(self.samples.items()):
            for sent, answer in pairs:
                checked += 1
                request = protocol.request_from_payload(json.loads(sent))
                want = json.loads(json.dumps(dispatcher.compute_decision(request).to_payload()))
                got = json.loads(answer)["decision"]
                if got != want:
                    failures.append(f"{cls} request {request.fingerprint()[:12]}: "
                                    f"served {got} != computed {want}")
        return checked, failures

    # -- traced pass: in-process replay through the service's own handler --
    def _replay(self, server, stream, tracer=None) -> dict:
        """Replay *stream* through *server* with the HTTP run's concurrency.

        With *tracer*, each request gets a root ``request`` span whose
        spans share the request's index.
        """
        latencies: dict[str, list[float]] = {}
        items = iter(enumerate(stream))

        async def client():
            for index, (cls, body) in items:
                if tracer is not None:
                    tracer.set_request(index)
                    handle = tracer.begin("request")
                t0 = perf_counter()
                prefix = server.l0.get(body)
                if prefix is not None:
                    server.service.note_bytecache_hit(perf_counter() - t0)
                else:
                    answer = await server.handle_allocate(body)
                    if not answer.startswith(b"HTTP/1.1 200"):
                        raise RuntimeError(f"in-process replay failed: {answer[:200]!r}")
                latencies.setdefault(cls, []).append(perf_counter() - t0)
                if tracer is not None:
                    tracer.end(handle)

        async def main():
            await asyncio.gather(*(client() for _ in range(CONNECTIONS * self.window)))

        start = perf_counter()
        asyncio.run(main())
        return {"wall": perf_counter() - start, "latencies": latencies}

    def traced(self, tracer, seconds: float, untraced: dict) -> dict:
        n = REPLAY_REQUESTS[self.name]
        cache_dir = self.workdir / "replay-cache"
        service = DecisionService(cache_dir=cache_dir)
        server = aserver.AsyncDecisionServer(service)
        try:
            self._replay(server, [("l0", body) for body in self.requests.hot])
            plain = self._replay(server, self.requests.stream(self.name, n))
            traced_stream = self.requests.stream(self.name, n)
            before = service.batcher.stats()
            disk_before = dir_bytes(cache_dir)
            self._install(tracer, service)
            try:
                run = self._replay(server, traced_stream, tracer)
            finally:
                tracer.restore()
            after = service.batcher.stats()
        finally:
            service.close()
        spans = tracer.summary()
        counts = tracer.counts

        def per_request(name):
            return spans.get(name, {}).get("self_s", 0.0) * 1e3 / len(traced_stream)

        batches = after.batches - before.batches
        http_p50 = untraced["class_p50_ms"]
        layers = {
            "trace.overhead_pct": (run["wall"] / plain["wall"] - 1.0) * 100.0,
            "service.request_self_ms": per_request("request"),
            "service.parse_ms": per_request("service.parse"),
            "service.fingerprint_ms": per_request("service.fingerprint"),
            "service.encode_ms": per_request("service.encode"),
            "cache.get_ms": per_request("cache.get"),
            "cache.put_ms": per_request("cache.put") + per_request("cache.disk_put"),
            "cache.hit_ratio": counts["cache.hits"] / max(counts["cache.gets"], 1),
            "cache.disk_writes": counts["cache.disk_writes"],
            "cache.disk_bytes": dir_bytes(cache_dir) - disk_before,
            "batcher.queue_wait_ms": counts["batcher.wait_s"] * 1e3 / max(counts["batcher.waits"], 1),
            "batcher.mean_batch": (after.requests - before.requests) / max(batches, 1),
            "batcher.coalesced": after.coalesced - before.coalesced,
            "dispatcher.compute_ms": per_request("dispatcher.compute"),
            "core.schedule_ms": per_request("core.schedule"),
            **tracer.scheduler_counts(),
        }
        for cls, value in http_p50.items():
            layers[f"serve.{cls}_p50_ms"] = value
        layers["aserver.http_ms"] = untraced["raw"]["loop_cpu_ms_per_op"]
        for name, value in self.counts.items():
            layers[f"server.{name}"] = value
        return layers

    def _install(self, tracer, service) -> None:
        """Trace the serving layers of *service* (and the classes it uses)."""
        submitted: dict[str, float] = {}
        submit = batcher.RequestBatcher.submit
        compute = tracer.wrap("dispatcher.compute", service.batcher.evaluate)

        def traced_submit(self_, request, key, *args, **kwargs):
            submitted[key] = perf_counter()
            return submit(self_, request, key, *args, **kwargs)

        def traced_evaluate(requests, keys=None):
            now = perf_counter()
            for key in keys or ():
                sent = submitted.pop(key, None)
                if sent is not None:
                    tracer.count("batcher.waits")
                    tracer.count("batcher.wait_s", now - sent)
            return compute(requests, keys=keys)

        def on_get(args, kwargs, result):
            tracer.count("cache.gets")
            tracer.count("cache.hits", result is not None)

        tracer.replace(aserver, "json", types.SimpleNamespace(
            loads=tracer.wrap("service.parse", json.loads),
            dumps=tracer.wrap("service.encode", json.dumps),
            JSONDecodeError=json.JSONDecodeError))
        tracer.patch(aserver, "request_from_payload", "service.parse")
        tracer.patch(protocol.AllocationRequest, "fingerprint", "service.fingerprint")
        tracer.patch(protocol.AllocationResponse, "to_payload", "service.encode")
        tracer.patch(tiered.TieredCache, "get", "cache.get", on_get)
        tracer.patch(tiered.TieredCache, "put", "cache.put")
        tracer.patch(cache_disk.DecisionDiskTier, "put", "cache.disk_put",
                     lambda *_: tracer.count("cache.disk_writes"))
        tracer.replace(batcher.RequestBatcher, "submit", traced_submit)
        # The batcher holds the dispatcher's bound method from construction.
        tracer.replace(service.batcher, "evaluate", traced_evaluate)
        tracer.trace_schedulers()
