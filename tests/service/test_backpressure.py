"""Backpressure and per-request error surfacing (batcher + dispatcher)."""

from __future__ import annotations

import dataclasses
import threading

import pytest

from repro.service.batcher import QueueFullError, RequestBatcher
from repro.service.dispatcher import Dispatcher, RequestError
from repro.service.protocol import AllocationRequest, request_from_payload
from repro.types import ModelError, ReproError


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

        def evaluate(reqs):
            release.wait(10)
            return ["d"] * len(reqs)

        with RequestBatcher(evaluate, max_batch_size=1, max_wait_s=0.0,
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
        with RequestBatcher(lambda reqs: ["d"] * len(reqs),
                            max_queue_depth=0) as b:
            for _ in range(3):
                with pytest.raises(QueueFullError):
                    b.submit("r", "k")
        assert b.stats().rejected == 3

    def test_depth_gauge_returns_to_zero(self):
        with RequestBatcher(lambda reqs: ["d"] * len(reqs),
                            max_batch_size=4, max_wait_s=0.0,
                            max_queue_depth=64) as b:
            futures = [b.submit(f"r{i}", f"k{i}") for i in range(8)]
            for f in futures:
                f.result(timeout=10)
            assert b.stats().queue_depth == 0

    def test_unbounded_by_default(self):
        with RequestBatcher(lambda reqs: ["d"] * len(reqs),
                            max_batch_size=64, max_wait_s=0.0) as b:
            futures = [b.submit(f"r{i}", f"k{i}") for i in range(100)]
            for f in futures:
                f.result(timeout=10)
        assert b.stats().rejected == 0

    def test_depth_validation(self):
        with pytest.raises(ModelError):
            RequestBatcher(lambda reqs: [], max_queue_depth=-1)


class TestKeyPassing:
    def test_keys_forwarded_to_willing_evaluator(self):
        seen = {}

        def evaluate(reqs, keys=None):
            seen["keys"] = list(keys)
            return ["d"] * len(reqs)

        with RequestBatcher(evaluate, max_batch_size=2, max_wait_s=30.0) as b:
            futures = [b.submit(f"r{i}", f"k{i}") for i in range(2)]
            for f in futures:
                f.result(timeout=10)
        assert seen["keys"] == ["k0", "k1"]

    def test_plain_evaluator_untouched(self):
        def evaluate(reqs):
            return ["d"] * len(reqs)

        with RequestBatcher(evaluate) as b:
            assert not b._evaluate_wants_keys
            assert b.submit("r", "k").result(timeout=10)[0] == "d"


class TestDispatcherRequestError:
    def _request(self, scheduler: str) -> AllocationRequest:
        return request_from_payload({
            "applications": [{"work": 10.0}],
            "platform": "taihulight",
            "scheduler": scheduler,
        })

    def test_model_failure_wrapped_with_fingerprint(self):
        dispatcher = Dispatcher()
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

    def test_without_keys_errors_stay_bare(self):
        dispatcher = Dispatcher()
        good = self._request("dominant-minratio")
        bad = dataclasses.replace(good, scheduler="no-such-strategy")
        out = dispatcher.evaluate([good, bad])
        assert isinstance(out[1], ReproError)
        assert not isinstance(out[1], RequestError)

    def test_inflight_gauge_settles(self):
        dispatcher = Dispatcher()
        dispatcher.evaluate([self._request("dominant-minratio")],
                            keys=["fp"])
        assert dispatcher.inflight.value == 0
