#!/usr/bin/env python
"""Open-loop load generator for the decision service.

Replays :mod:`repro.online.arrivals` traffic models (constant rate,
inhomogeneous Poisson, trace) against a live server, sweeping offered
load and recording the throughput-vs-latency degradation curve into a
``BENCH_pr7.json`` trajectory record (same schema and gate as the PR 6
record — ``check_trajectory.py validate / gate``).

Open loop means arrivals are *scheduled*, not paced by responses: a
request's latency is measured from its scheduled arrival instant, so
when the server (or the shared accept queue) falls behind, the delay
shows up as tail latency instead of silently shrinking the offered
rate — the standard way to expose the saturation knee.

Usage::

    # full sweep against a self-hosted in-process async server
    PYTHONPATH=src python benchmarks/bench_loadgen.py

    # smoke mode (low rates, short) against an external server
    PYTHONPATH=src python benchmarks/bench_loadgen.py --smoke \
        --url http://127.0.0.1:8765 --out fresh_load.json

The record also carries the sharded-vs-single-lock cache A/B under 8
concurrent clients (``cache_single_8t`` / ``cache_sharded_8t``); the
sharded bench's ``speedup_vs_scalar`` ratio is what the regression
gate tracks across machines.  In full mode the acceptance bars are
enforced: >= 10k warm decisions/s at the knee and >= 2x sharded cache
throughput.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import sys
import threading
from collections import deque
from pathlib import Path
from time import perf_counter
from urllib.parse import urlsplit

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _harness import REPO_ROOT, write_trajectory  # noqa: E402

from repro.cache import LRUCache, ShardedClockCache  # noqa: E402
from repro.online.arrivals import (  # noqa: E402
    ConstantRate,
    PoissonProcess,
    TraceSource,
)

#: Offered-load sweep points (requests/s).
FULL_RATES = (3000, 8000, 14000, 20000, 30000, 40000)
SMOKE_RATES = (400, 800, 1600)

#: How long each sweep point offers load.
FULL_DURATION_S = 4.0
SMOKE_DURATION_S = 1.5

#: Don't sleep for gaps shorter than this — the event loop's timer
#: granularity would turn the sleep into lateness anyway.
_MIN_SLEEP_S = 5e-4


# -- request corpus --------------------------------------------------------
def build_bodies(distinct: int, napps: int, seed: int = 2017) -> list[bytes]:
    """*distinct* allocation request bodies (byte-stable, reproducible)."""
    rng = np.random.default_rng(seed)
    bodies = []
    for _ in range(distinct):
        apps = [
            {
                "work": float(round(rng.uniform(50.0, 500.0), 3)),
                "seq_fraction": float(round(rng.uniform(0.0, 0.2), 4)),
                "miss_rate": float(round(rng.uniform(0.05, 0.5), 4)),
            }
            for _ in range(napps)
        ]
        payload = {"applications": apps, "platform": "taihulight",
                   "scheduler": "dominant-minratio"}
        bodies.append(json.dumps(payload).encode())
    return bodies


def http_request(body: bytes) -> bytes:
    return (b"POST /v1/allocate HTTP/1.1\r\n"
            b"Host: bench\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n"
            + body)


# -- client ----------------------------------------------------------------
class _SweepState:
    """Shared tally across one sweep point's connections."""

    def __init__(self, expected: int):
        self.expected = expected
        self.completed = 0
        self.ok = 0
        self.errors = 0
        self.latencies: list[float] = []
        self.done = asyncio.Event()
        self.last_response_at = 0.0

    def account(self, ok: bool, latency_s: float) -> None:
        self.completed += 1
        if ok:
            self.ok += 1
            self.latencies.append(latency_s)
        else:
            self.errors += 1
        if self.completed >= self.expected:
            self.last_response_at = perf_counter()
            self.done.set()


class _ClientConn(asyncio.Protocol):
    """One persistent connection: FIFO response matching.

    Requests on a connection are answered in order (the server's
    outbox guarantees it), so the scheduled-arrival timestamps queue
    FIFO and each parsed response pops the front.
    """

    def __init__(self, state: _SweepState):
        self.state = state
        self.pending: deque[float] = deque()
        self.buf = bytearray()
        self.transport: asyncio.Transport | None = None

    def connection_made(self, transport) -> None:
        self.transport = transport

    def connection_lost(self, exc) -> None:
        self.transport = None

    def send(self, request: bytes, scheduled_at: float) -> None:
        self.pending.append(scheduled_at)
        self.transport.write(request)

    def data_received(self, data: bytes) -> None:
        buf = self.buf
        buf += data
        while True:
            header_end = buf.find(b"\r\n\r\n")
            if header_end < 0:
                return
            header = bytes(buf[:header_end])
            lower = header.lower()
            idx = lower.find(b"content-length:")
            end = lower.find(b"\r\n", idx)
            length = int(lower[idx + 15:end if end >= 0 else len(lower)])
            total = header_end + 4 + length
            if len(buf) < total:
                return
            del buf[:total]
            scheduled_at = self.pending.popleft()
            self.state.account(header[9:12] == b"200",
                               perf_counter() - scheduled_at)


async def _open_connections(host: str, port: int, n: int,
                            state: _SweepState) -> list[_ClientConn]:
    loop = asyncio.get_running_loop()
    conns = []
    for _ in range(n):
        _, proto = await loop.create_connection(
            lambda: _ClientConn(state), host, port)
        conns.append(proto)
    return conns


async def run_sweep(host: str, port: int, requests: list[bytes],
                    arrival_s: np.ndarray, connections: int) -> dict:
    """Offer *arrival_s*-scheduled requests; return the point's stats."""
    state = _SweepState(expected=len(arrival_s))
    conns = await _open_connections(host, port, connections, state)
    try:
        nconn = len(conns)
        nreq = len(requests)
        t0 = perf_counter()
        for i, at in enumerate(arrival_s):
            due = t0 + at
            gap = due - perf_counter()
            if gap > _MIN_SLEEP_S:
                await asyncio.sleep(gap)
            conns[i % nconn].send(requests[i % nreq], due)
        span = float(arrival_s[-1]) if len(arrival_s) else 0.0
        await asyncio.wait_for(state.done.wait(), timeout=span + 60.0)
        wall = state.last_response_at - t0
    finally:
        for conn in conns:
            if conn.transport is not None:
                conn.transport.close()
    latencies = np.sort(np.asarray(state.latencies))

    def pct(q: float) -> float:
        if latencies.size == 0:
            return 0.0
        return float(latencies[min(latencies.size - 1,
                                   int(q * latencies.size))]) * 1e3

    return {
        "ok": state.ok,
        "errors": state.errors,
        "wall_s": wall,
        "achieved_per_s": state.ok / wall if wall > 0 else 0.0,
        "p50_ms": pct(0.50),
        "p95_ms": pct(0.95),
        "p99_ms": pct(0.99),
    }


async def warm_up(host: str, port: int, requests: list[bytes]) -> None:
    """Send every distinct request once so repeats hit the caches."""
    state = _SweepState(expected=len(requests))
    conns = await _open_connections(host, port, min(8, len(requests)), state)
    try:
        now = perf_counter()
        for i, request in enumerate(requests):
            conns[i % len(conns)].send(request, now)
        await asyncio.wait_for(state.done.wait(), timeout=120.0)
    finally:
        for conn in conns:
            if conn.transport is not None:
                conn.transport.close()


def arrival_times(kind: str, rate: float, duration: float,
                  seed: int) -> np.ndarray:
    """Arrival instants (seconds) for one sweep point."""
    n = max(1, int(rate * duration))
    rng = np.random.default_rng(seed)
    if kind == "constant":
        return ConstantRate(period=1.0 / rate).times(n, rng)
    if kind == "poisson":
        return PoissonProcess(rate=rate).times(n, rng)
    if kind.startswith("trace:"):
        # Replay the trace's shape, rescaled onto this sweep point's
        # duration so its mean rate matches the offered rate.
        t = TraceSource(path=Path(kind[6:])).times(n, rng)
        span = float(t[-1]) if t[-1] > 0 else 1.0
        return t * (duration / span)
    raise SystemExit(f"error: unknown arrivals kind {kind!r} "
                     f"(constant, poisson, trace:PATH)")


# -- cache A/B under concurrent clients ------------------------------------
def _hammer(nthreads: int, make_worker) -> float:
    """Run *nthreads* workers through a start barrier; return wall s."""
    barrier = threading.Barrier(nthreads + 1)

    def wrap(fn):
        def run():
            barrier.wait()
            fn()
        return run

    threads = [threading.Thread(target=wrap(make_worker(i)))
               for i in range(nthreads)]
    for t in threads:
        t.start()
    barrier.wait()
    t0 = perf_counter()
    for t in threads:
        t.join()
    return perf_counter() - t0


def bench_cache_ab(nthreads: int = 8, nkeys: int = 1024,
                   lookups_per_thread: int = 200_000,
                   burst: int = 64) -> tuple[dict, dict]:
    """Single-lock vs sharded cache throughput under *nthreads* clients.

    Both caches hold the same *nkeys* fingerprints and every thread
    performs the same number of key lookups; the sharded side goes
    through :meth:`ShardedClockCache.get_many` in *burst*-sized
    probes — the batch API the serving path actually uses.
    """
    keys = [hashlib.sha256(str(i).encode()).hexdigest()
            for i in range(nkeys)]
    total = nthreads * lookups_per_thread

    single: LRUCache = LRUCache(nkeys * 2)
    for key in keys:
        single.put(key, object())

    def single_worker(tid: int):
        local = keys[tid % nkeys:] + keys[:tid % nkeys]
        get = single.get

        def run():
            for _ in range(lookups_per_thread // nkeys):
                for key in local:
                    get(key)
        return run

    single_wall = _hammer(nthreads, single_worker)

    sharded: ShardedClockCache = ShardedClockCache(nkeys * 2, shards=8)
    for key in keys:
        sharded.put(key, object())
    bursts = [keys[i:i + burst] for i in range(0, nkeys, burst)]

    def sharded_worker(tid: int):
        local = bursts[tid % len(bursts):] + bursts[:tid % len(bursts)]
        get_many = sharded.get_many

        def run():
            for _ in range(lookups_per_thread // nkeys):
                for chunk in local:
                    get_many(chunk)
        return run

    sharded_wall = _hammer(nthreads, sharded_worker)

    single_bench = {
        "backend": "decision-cache-single-lock",
        "batch": 1,
        "instances": total,
        "wall_s": single_wall,
        "instances_per_s": total / single_wall,
        "threads": nthreads,
    }
    sharded_bench = {
        "backend": "decision-cache-sharded",
        "batch": burst,
        "instances": total,
        "wall_s": sharded_wall,
        "instances_per_s": total / sharded_wall,
        "threads": nthreads,
        "shards": 8,
        "speedup_vs_scalar": single_wall / sharded_wall,
    }
    return single_bench, sharded_bench


# -- driver ----------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--url", default=None,
                        help="base URL of a running server; default: "
                             "self-host an in-process async server")
    parser.add_argument("--smoke", action="store_true",
                        help="low rates, short sweeps, no acceptance bars")
    parser.add_argument("--arrivals", default="poisson",
                        help="traffic model: constant, poisson (default), "
                             "or trace:PATH")
    parser.add_argument("--connections", type=int, default=32)
    parser.add_argument("--distinct", type=int, default=64,
                        help="distinct request bodies cycled through")
    parser.add_argument("--napps", type=int, default=8)
    parser.add_argument("--rates", type=float, nargs="*", default=None,
                        help="override the offered-load sweep (req/s)")
    parser.add_argument("--duration", type=float, default=None,
                        help="seconds of offered load per sweep point")
    parser.add_argument("--seed", type=int, default=2017)
    parser.add_argument("--out", type=Path,
                        default=REPO_ROOT / "BENCH_pr7.json")
    args = parser.parse_args(argv)

    rates = args.rates or (SMOKE_RATES if args.smoke else FULL_RATES)
    duration = args.duration or (SMOKE_DURATION_S if args.smoke
                                 else FULL_DURATION_S)

    bodies = build_bodies(args.distinct, args.napps, args.seed)
    requests = [http_request(b) for b in bodies]

    server_thread = None
    if args.url:
        parts = urlsplit(args.url)
        host, port = parts.hostname or "127.0.0.1", parts.port or 80
    else:
        from repro.service.aserver import AsyncServerThread
        from repro.service.core import DecisionService
        server_thread = AsyncServerThread(
            DecisionService(cache_capacity=4096, cache_shards=8))
        parts = urlsplit(server_thread.url)
        host, port = parts.hostname, parts.port
        print(f"[loadgen] self-hosted async server at {server_thread.url}",
              file=sys.stderr)

    kind = args.arrivals
    benches: dict[str, dict] = {}
    try:
        asyncio.run(warm_up(host, port, requests))
        knee = 0.0
        knee_point = None
        for rate in rates:
            arrivals = arrival_times(kind, rate, duration, args.seed)
            point = asyncio.run(run_sweep(host, port, requests, arrivals,
                                          args.connections))
            name_kind = "trace" if kind.startswith("trace:") else kind
            name = f"loadgen_{name_kind}_r{int(rate)}"
            benches[name] = {
                "backend": "aserver",
                "batch": args.connections,
                "instances": point["ok"] or 1,
                "wall_s": point["wall_s"],
                "instances_per_s": point["achieved_per_s"],
                "offered_per_s": float(rate),
                "errors": point["errors"],
                "p50_ms": point["p50_ms"],
                "p95_ms": point["p95_ms"],
                "p99_ms": point["p99_ms"],
            }
            print(f"[loadgen] {name}: offered {rate:>8.0f}/s  "
                  f"achieved {point['achieved_per_s']:>8.0f}/s  "
                  f"p50 {point['p50_ms']:.2f}ms  p99 {point['p99_ms']:.2f}ms  "
                  f"errors {point['errors']}", file=sys.stderr)
            if point["achieved_per_s"] > knee:
                knee = point["achieved_per_s"]
                knee_point = benches[name]
    finally:
        if server_thread is not None:
            server_thread.close()

    benches["serve_warm_knee"] = {
        "backend": "aserver",
        "batch": args.connections,
        "instances": knee_point["instances"],
        "wall_s": knee_point["wall_s"],
        "instances_per_s": knee,
        "offered_per_s": knee_point["offered_per_s"],
    }
    print(f"[loadgen] warm knee: {knee:.0f} decisions/s", file=sys.stderr)

    if args.smoke:
        single, sharded = bench_cache_ab(lookups_per_thread=20_000)
    else:
        single, sharded = bench_cache_ab()
    benches["cache_single_8t"] = single
    benches["cache_sharded_8t"] = sharded
    ratio = sharded["speedup_vs_scalar"]
    print(f"[loadgen] cache A/B under 8 threads: single "
          f"{single['instances_per_s']:.0f}/s, sharded "
          f"{sharded['instances_per_s']:.0f}/s ({ratio:.2f}x)",
          file=sys.stderr)

    write_trajectory(args.out, benches, reps=1, pr="pr7")

    if not args.smoke:
        failures = []
        if knee < 10_000:
            failures.append(f"warm knee {knee:.0f}/s below the 10k/s bar")
        if ratio < 2.0:
            failures.append(f"sharded cache {ratio:.2f}x below the 2x bar")
        if failures:
            for failure in failures:
                print(f"BAR  {failure}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
