"""Backpressure and per-request error surfacing (batcher + dispatcher)."""

from __future__ import annotations

import dataclasses
import threading

import pytest

from repro.service.batcher import QueueFullError, RequestBatcher
from repro.service import dispatcher
from repro.service.dispatcher import RequestError
from repro.service.protocol import AllocationRequest, request_from_payload
from repro.types import ModelError, ReproError

from .plug import Plug


class TestQueueFullError:
    def test_attributes_and_message(self):
        exc = QueueFullError(depth=12, max_depth=12, retry_after_s=0.25)
        assert exc.depth == 12
        assert exc.max_depth == 12
        assert exc.retry_after_s == 0.25
        assert "12" in str(exc) and "retry" in str(exc)

    def test_is_model_error(self):
        # the HTTP layers treat ModelError as a client-visible failure
        assert issubclass(QueueFullError, ModelError)


class TestBatcherBackpressure:
    def test_submit_rejected_at_depth_limit(self):
        release = threading.Event()

        def evaluate(reqs, keys):
            release.wait(10)
            return ["d"] * len(reqs)

        with RequestBatcher(evaluate, max_batch_size=1,
                            max_queue_depth=2) as b:
            futures = [b.submit(f"r{i}", f"k{i}") for i in range(2)]
            # collector may have pulled one batch and be blocked in
            # evaluate; depth only drops after a batch completes, so a
            # third submit must shed.
            with pytest.raises(QueueFullError) as info:
                b.submit("r2", "k2")
            assert info.value.max_depth == 2
            assert info.value.retry_after_s >= 0.05
            release.set()
            for f in futures:
                assert f.result(timeout=10)[0] == "d"
        stats = b.stats()
        assert stats.rejected == 1
        assert stats.requests == 2

    def test_zero_depth_rejects_everything(self):
        with RequestBatcher(lambda reqs, keys: ["d"] * len(reqs),
                            max_queue_depth=0) as b:
            for _ in range(3):
                with pytest.raises(QueueFullError):
                    b.submit("r", "k")
        assert b.stats().rejected == 3

    def test_rider_is_not_shed_at_depth_limit(self):
        calls = []

        def evaluate(reqs, keys):
            calls.append(list(keys))
            return ["d"] * len(reqs)

        with RequestBatcher(evaluate, max_queue_depth=2) as b:
            with Plug(b) as plug:
                first = b.submit("r0", "k0")
                assert b.stats().queue_depth == 2   # plug + k0: full
                rider = b.submit("r0", "k0")        # rides, not shed
                with pytest.raises(QueueFullError):
                    b.submit("r1", "k1")            # a new key is shed
                assert b.stats().queue_depth == 2
            assert first.result(timeout=10) == ("d", 1, False)
            assert rider.result(timeout=10) == ("d", 1, True)
            stats = plug.stats()
        assert calls == [["k0"]]
        assert (stats.requests, stats.coalesced, stats.rejected) == (2, 1, 1)

    def test_depth_gauge_returns_to_zero(self):
        with RequestBatcher(lambda reqs, keys: ["d"] * len(reqs),
                            max_batch_size=4,
                            max_queue_depth=64) as b:
            futures = [b.submit(f"r{i}", f"k{i}") for i in range(8)]
            for f in futures:
                f.result(timeout=10)
            assert b.stats().queue_depth == 0

    def test_unbounded_by_default(self):
        with RequestBatcher(lambda reqs, keys: ["d"] * len(reqs),
                            max_batch_size=64) as b:
            futures = [b.submit(f"r{i}", f"k{i}") for i in range(100)]
            for f in futures:
                f.result(timeout=10)
        assert b.stats().rejected == 0

    def test_depth_validation(self):
        with pytest.raises(ModelError):
            RequestBatcher(lambda reqs: [], max_queue_depth=-1)


class TestKeyPassing:
    def test_keys_forwarded_to_evaluator(self):
        seen = {}

        def evaluate(reqs, keys):
            seen["keys"] = list(keys)
            return ["d"] * len(reqs)

        with RequestBatcher(evaluate, max_batch_size=2) as b:
            with Plug(b):
                futures = [b.submit(f"r{i}", f"k{i}") for i in range(2)]
            for f in futures:
                f.result(timeout=10)
        assert seen["keys"] == ["k0", "k1"]


class TestDispatcherRequestError:
    def _request(self, scheduler: str) -> AllocationRequest:
        return request_from_payload({
            "applications": [{"work": 10.0}],
            "platform": "taihulight",
            "scheduler": scheduler,
        })

    def test_model_failure_wrapped_with_fingerprint(self):
        good = self._request("dominant-minratio")
        requests = [good]
        out = dispatcher.evaluate(requests, keys=["fp-good"])
        assert not isinstance(out[0], Exception)

        # an unknown scheduler fails inside evaluation with a
        # ReproError; with keys supplied it must come back tagged
        bad = dataclasses.replace(good, scheduler="no-such-strategy")
        out = dispatcher.evaluate([good, bad], keys=["fp-a", "fp-b"])
        assert not isinstance(out[0], Exception)
        assert isinstance(out[1], RequestError)
        assert out[1].request_id == "fp-b"
        assert out[1].scheduler == "no-such-strategy"
        assert isinstance(out[1].__cause__, ReproError)
        payload = out[1].to_payload()
        assert payload["request_id"] == "fp-b"
        assert payload["scheduler"] == "no-such-strategy"
