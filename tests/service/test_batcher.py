"""Tests for the coalescing request batcher (deterministic, no HTTP)."""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.service.batcher import RequestBatcher
from repro.types import ModelError

from .plug import Plug


def _submit_n(batcher, n, *, key=None):
    """Submit n dummy requests (distinct keys unless *key* is given)."""
    return [
        batcher.submit(f"req{i}", key if key is not None else f"key{i}")
        for i in range(n)
    ]


class TestBatching:
    def test_full_batch_dispatches_in_one_call(self):
        calls: list[list] = []

        def evaluate(reqs, keys):
            calls.append(list(reqs))
            return [f"dec:{r}" for r in reqs]

        # The plug holds the thread busy, so all three queue up and
        # dispatch together.
        with RequestBatcher(evaluate, max_batch_size=3) as b:
            with Plug(b):
                futures = _submit_n(b, 3)
            results = [f.result(timeout=10) for f in futures]
        assert len(calls) == 1 and len(calls[0]) == 3
        for i, (decision, batch_size, coalesced) in enumerate(results):
            assert decision == f"dec:req{i}"
            assert batch_size == 3
            assert coalesced is False

    def test_lone_request_dispatches_at_once(self):
        with RequestBatcher(lambda reqs, keys: ["d"] * len(reqs),
                            max_batch_size=8) as b:
            decision, batch_size, coalesced = b.submit("r", "k").result(timeout=10)
        assert decision == "d" and batch_size == 1 and not coalesced

    def test_stats(self):
        with RequestBatcher(lambda reqs, keys: ["d"] * len(reqs),
                            max_batch_size=2) as b:
            with Plug(b) as plug:
                futures = _submit_n(b, 2)
            for f in futures:
                f.result(timeout=10)
            stats = plug.stats()
        assert stats.batches == 1
        assert stats.requests == 2
        assert stats.max_batch_seen == 2
        assert stats.mean_batch_size == pytest.approx(2.0)


class TestCoalescing:
    def test_identical_keys_computed_once(self):
        calls: list[list] = []

        def evaluate(reqs, keys):
            calls.append(list(reqs))
            return [f"dec:{r}" for r in reqs]

        with RequestBatcher(evaluate, max_batch_size=3) as b:
            with Plug(b):
                futures = _submit_n(b, 3, key="same")
            results = [f.result(timeout=10) for f in futures]
        # one evaluate call, one unique request inside it
        assert len(calls) == 1 and calls[0] == ["req0"]
        decisions = [r[0] for r in results]
        assert decisions == ["dec:req0"] * 3
        # exactly the first occurrence is "not coalesced"
        assert [r[2] for r in results] == [False, True, True]
        assert b.stats().coalesced == 2

    def test_duplicate_rides_on_evaluation_in_flight(self):
        calls: list[list] = []
        entered, release = threading.Event(), threading.Event()

        def evaluate(reqs, keys):
            calls.append(list(reqs))
            entered.set()
            assert release.wait(10)
            return [f"dec:{r}" for r in reqs]

        with RequestBatcher(evaluate, max_batch_size=4) as b:
            first = b.submit("req0", "same")
            assert entered.wait(10)     # "req0" is being evaluated now
            rider = b.submit("req1", "same")
            release.set()
            results = [first.result(timeout=10), rider.result(timeout=10)]
            stats = b.stats()
        assert calls == [["req0"]]
        assert results == [("dec:req0", 1, False), ("dec:req0", 1, True)]
        assert (stats.batches, stats.requests, stats.coalesced) == (1, 2, 1)

    def test_repeat_after_completion_is_evaluated_again(self):
        calls: list[list] = []

        def evaluate(reqs, keys):
            calls.append(list(reqs))
            return [f"dec:{r}" for r in reqs]

        with RequestBatcher(evaluate) as b:
            assert b.submit("req0", "same").result(timeout=10)[2] is False
            assert b.submit("req1", "same").result(timeout=10)[2] is False
        assert calls == [["req0"], ["req1"]]


class TestFailure:
    def test_per_request_exception_lands_on_its_future(self):
        def evaluate(reqs, keys):
            return [
                ModelError("boom") if r == "req1" else f"dec:{r}"
                for r in reqs
            ]

        with RequestBatcher(evaluate, max_batch_size=3) as b:
            with Plug(b):
                futures = _submit_n(b, 3)
            assert futures[0].result(timeout=10)[0] == "dec:req0"
            with pytest.raises(ModelError, match="boom"):
                futures[1].result(timeout=10)
            assert futures[2].result(timeout=10)[0] == "dec:req2"

    def test_cancelled_waiter_does_not_stop_the_thread(self):
        with RequestBatcher(lambda reqs, keys: [f"dec:{r}" for r in reqs]) as b:
            with Plug(b):
                gone = b.submit("req0", "k0")
                rider = b.submit("req0", "k0")
                assert gone.cancel()
            assert rider.result(timeout=10) == ("dec:req0", 1, True)
            assert b.submit("req1", "k1").result(timeout=10)[0] == "dec:req1"

    def test_evaluator_crash_fails_whole_batch(self):
        def evaluate(reqs, keys):
            raise RuntimeError("pool on fire")

        with RequestBatcher(evaluate, max_batch_size=2) as b:
            with Plug(b):
                futures = _submit_n(b, 2)
            for f in futures:
                with pytest.raises(RuntimeError, match="pool on fire"):
                    f.result(timeout=10)

    def test_wrong_result_count_detected(self):
        with RequestBatcher(lambda reqs, keys: ["only-one"],
                            max_batch_size=2) as b:
            with Plug(b):
                futures = _submit_n(b, 2)
            for f in futures:
                with pytest.raises(ModelError, match="results"):
                    f.result(timeout=10)


class TestLifecycle:
    def test_submit_after_close_rejected(self):
        b = RequestBatcher(lambda reqs, keys: ["d"] * len(reqs))
        b.close()
        with pytest.raises(ModelError, match="closed"):
            b.submit("r", "k")

    def test_close_is_idempotent(self):
        b = RequestBatcher(lambda reqs, keys: ["d"] * len(reqs))
        b.close()
        b.close()

    def test_close_serves_every_accepted_request(self):
        b = RequestBatcher(lambda reqs, keys: [f"dec:{r}" for r in reqs],
                           max_batch_size=1)
        with Plug(b):
            futures = [b.submit("req0", "k0"), b.submit("req0", "k0"),
                       b.submit("req1", "k1")]
            closer = threading.Thread(target=b.close)
            closer.start()
            while not b._closed:
                time.sleep(0.001)
            with pytest.raises(ModelError, match="closed"):
                b.submit("req2", "k2")
        closer.join(timeout=10)
        assert not closer.is_alive()
        assert [f.result(timeout=10) for f in futures] == [
            ("dec:req0", 1, False), ("dec:req0", 1, True),
            ("dec:req1", 1, False)]

    def test_knob_validation(self):
        with pytest.raises(ModelError):
            RequestBatcher(lambda reqs, keys: [], max_batch_size=0)

    def test_linger_knob_is_gone(self):
        with pytest.raises(TypeError):
            RequestBatcher(lambda reqs, keys: [], max_wait_s=0.0)

    def test_concurrent_submitters(self):
        """Many threads, one batcher: every caller gets its own answer."""
        with RequestBatcher(lambda reqs, keys: [f"dec:{r}" for r in reqs],
                            max_batch_size=4) as b:
            results: dict[int, str] = {}
            lock = threading.Lock()

            def caller(i: int):
                decision, _, _ = b.submit(f"req{i}", f"key{i}").result(timeout=10)
                with lock:
                    results[i] = decision

            threads = [threading.Thread(target=caller, args=(i,))
                       for i in range(16)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert results == {i: f"dec:req{i}" for i in range(16)}

    def test_riders_under_thread_hammer(self):
        """More threads than cores on few keys: nothing lost, nothing doubled."""
        batches: list[list[str]] = []

        def evaluate(reqs, keys):
            batches.append(list(keys))
            return [f"dec:{k}" for k in keys]

        nthreads, per_thread, nkeys = 8, 200, 5
        errors: list[object] = []
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with RequestBatcher(evaluate, max_batch_size=4) as b:
                barrier = threading.Barrier(nthreads)

                def caller(tid: int):
                    barrier.wait()
                    for i in range(per_thread):
                        key = f"k{(tid + i) % nkeys}"
                        decision, _, _ = b.submit(key, key).result(timeout=10)
                        if decision != f"dec:{key}":
                            errors.append((key, decision))

                threads = [threading.Thread(target=caller, args=(t,))
                           for t in range(nthreads)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                stats = b.stats()
        finally:
            sys.setswitchinterval(switch)
        assert not errors
        # a key is queued or evaluated at most once at a time
        assert all(len(set(keys)) == len(keys) for keys in batches)
        evaluated = sum(len(keys) for keys in batches)
        assert stats.requests == nthreads * per_thread
        assert stats.coalesced == stats.requests - evaluated
        assert stats.batches == len(batches)
        assert stats.queue_depth == 0
