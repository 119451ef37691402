"""Tests for the transport-agnostic decision service core."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core import get_scheduler
from repro.machine import taihulight
from repro.service import (
    AllocationRequest,
    DecisionService,
    RequestError,
    compute_decision,
    request_from_payload,
)
from repro.service import dispatcher as dispatcher_mod
from repro.types import ModelError
from repro.workloads import npb6, npb_synth

from .plug import Plug


@pytest.fixture
def request6():
    return AllocationRequest(
        applications=tuple(npb6(seq_range=None)),
        platform=taihulight(),
        scheduler="dominant-minratio",
    )


@pytest.fixture
def service():
    with DecisionService(cache_capacity=32, max_batch_size=4) as svc:
        yield svc


class TestComputeDecision:
    def test_matches_offline_scheduler(self, request6):
        decision = compute_decision(request6)
        schedule = get_scheduler("dominant-minratio")(
            request6.workload(), request6.platform, None)
        assert decision.makespan == pytest.approx(schedule.makespan(), rel=1e-12)
        assert np.allclose(decision.procs, schedule.procs)
        assert np.allclose(decision.cache, schedule.cache)
        assert decision.names == request6.workload().names

    def test_randomized_is_seed_reproducible(self, request6):
        a = compute_decision(AllocationRequest(
            applications=request6.applications, platform=request6.platform,
            scheduler="randompart", seed=5))
        b = compute_decision(AllocationRequest(
            applications=request6.applications, platform=request6.platform,
            scheduler="randompart", seed=5))
        c = compute_decision(AllocationRequest(
            applications=request6.applications, platform=request6.platform,
            scheduler="randompart", seed=6))
        assert a == b
        assert a != c

    def test_sequential_strategy_served_too(self, request6):
        decision = compute_decision(AllocationRequest(
            applications=request6.applications, platform=request6.platform,
            scheduler="allproccache"))
        assert decision.makespan == pytest.approx(sum(decision.times))

    def test_unknown_scheduler(self, request6):
        with pytest.raises(ModelError, match="unknown scheduler"):
            compute_decision(AllocationRequest(
                applications=request6.applications,
                platform=request6.platform, scheduler="magic"))


class TestServing:
    def test_cold_then_warm(self, service, request6, monkeypatch):
        computes = []
        real = compute_decision
        monkeypatch.setattr(dispatcher_mod, "compute_decision",
                            lambda req: (computes.append(1), real(req))[1])
        cold = service.allocate(request6)
        warm = service.allocate(request6)
        # the acceptance property: a warm repeat is a decision-cache hit,
        # the hit counter moves, and the scheduler is NOT recomputed
        assert not cold.cache_hit and warm.cache_hit
        assert len(computes) == 1
        assert warm.decision == cold.decision
        assert warm.batch_size == 0
        assert cold.request_id == warm.request_id == request6.fingerprint()
        metrics = service.metrics()
        assert metrics["decision_cache.hits"] == 1
        assert metrics["decision_cache.misses"] == 1
        assert metrics["decisions.total"] == 2

    def test_distinct_requests_distinct_decisions(self, service):
        rng = np.random.default_rng(0)
        reqs = [
            AllocationRequest(applications=tuple(npb_synth(4, rng)),
                              platform=taihulight())
            for _ in range(3)
        ]
        responses = [service.allocate(r) for r in reqs]
        ids = {r.request_id for r in responses}
        assert len(ids) == 3
        assert all(not r.cache_hit for r in responses)

    def test_concurrent_identical_requests_coalesce(self, request6):
        # The plug holds the batcher's thread, so both callers are
        # in flight together.
        with DecisionService(max_batch_size=2) as svc:
            responses = []
            lock = threading.Lock()

            def caller():
                resp = svc.allocate(request6)
                with lock:
                    responses.append(resp)

            threads = [threading.Thread(target=caller) for _ in range(2)]
            with Plug(svc.batcher) as plug:
                for t in threads:
                    t.start()
                plug.wait_submitted(2)
            for t in threads:
                t.join()
            assert [r.decision for r in responses] == [responses[0].decision] * 2
            # one computed it, the other coalesced onto it (neither was
            # a decision-cache hit: both arrived before the store)
            assert sorted(r.coalesced for r in responses) == [False, True]
            assert svc.metrics()["batcher.coalesced"] == 1

    def test_riders_store_the_decision_once(self, request6, tmp_path,
                                            monkeypatch):
        from repro.cache import disk as cache_disk

        stored = []
        put = cache_disk.DecisionDiskTier.put
        monkeypatch.setattr(cache_disk.DecisionDiskTier, "put",
                            lambda self, key, payload: stored.append(key)
                            or put(self, key, payload))
        with DecisionService(cache_dir=tmp_path) as svc:
            responses = []
            threads = [threading.Thread(
                target=lambda: responses.append(svc.allocate(request6)))
                for _ in range(3)]
            with Plug(svc.batcher) as plug:
                for t in threads:
                    t.start()
                plug.wait_submitted(3)
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert sorted(r.coalesced for r in responses) == [False, True, True]
            assert svc.allocate(request6).cache_hit
        assert stored == [request6.fingerprint()]

    def test_batcher_stores_before_the_key_leaves_flight(self, request6):
        # A twin parsed just after the batch finished must be a cache
        # hit: the decision is stored by the evaluating thread, before
        # the batcher drops the batch's fingerprints, not later by the
        # first caller's continuation.
        with DecisionService() as svc:
            key = request6.fingerprint()
            decision, _, coalesced = svc.batcher.submit(request6, key).result(
                timeout=30)
            assert not coalesced
            assert svc.cache.get(key) == decision
            twin = svc.allocate(request6)
            assert twin.cache_hit and twin.decision == decision
            assert svc.batcher.stats().batches == 1

    def test_failed_evaluation_is_not_stored(self, request6):
        with DecisionService() as svc:
            bad = AllocationRequest(applications=request6.applications,
                                    platform=request6.platform,
                                    scheduler="magic")
            with pytest.raises(RequestError):
                svc.batcher.submit(bad, "bad-key").result(timeout=30)
            assert svc.cache.get("bad-key") is None

    def test_concurrent_distinct_requests_batch(self):
        rng = np.random.default_rng(1)
        reqs = [
            AllocationRequest(applications=tuple(npb_synth(4, rng)),
                              platform=taihulight())
            for _ in range(3)
        ]
        with DecisionService(max_batch_size=3) as svc:
            sizes = []
            lock = threading.Lock()

            def caller(req):
                resp = svc.allocate(req)
                with lock:
                    sizes.append(resp.batch_size)

            threads = [threading.Thread(target=caller, args=(r,)) for r in reqs]
            with Plug(svc.batcher) as plug:
                for t in threads:
                    t.start()
                plug.wait_submitted(3)
            for t in threads:
                t.join()
            assert sizes == [3, 3, 3]
            assert svc.metrics()["batcher.max_batch_seen"] == 3

    def test_error_does_not_poison_service(self, service, request6):
        bad = AllocationRequest(applications=request6.applications,
                                platform=request6.platform, scheduler="magic")
        with pytest.raises(ModelError):
            service.allocate(bad)
        ok = service.allocate(request6)
        assert ok.decision.makespan > 0
        assert service.metrics()["decisions.errors"] == 1

    def test_lru_eviction_bounds_memory(self, request6):
        rng = np.random.default_rng(2)
        with DecisionService(cache_capacity=2) as svc:
            for _ in range(5):
                svc.allocate(AllocationRequest(
                    applications=tuple(npb_synth(3, rng)),
                    platform=taihulight()))
            metrics = svc.metrics()
            assert metrics["decision_cache.size"] <= 2
            assert metrics["decision_cache.evictions"] == 3

    def test_latency_metadata(self, service, request6):
        resp = service.allocate(request6)
        assert resp.latency_ms > 0
        assert service.metrics()["decisions.latency_seconds_total"] > 0

    def test_allocate_wire_payload(self, service):
        resp = service.allocate(request_from_payload({
            "applications": [{"work": 1e9, "access_freq": 0.5,
                              "miss_rate": 0.01}],
            "platform": "taihulight",
        }))
        assert resp.decision.procs == (256.0,)

    def test_linger_knob_is_gone(self):
        with pytest.raises(TypeError):
            DecisionService(max_wait_ms=1.0)
