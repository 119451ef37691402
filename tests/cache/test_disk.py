"""Disk tier: atomic store mechanics, decision tier, npz codec edge cases."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.cache import (
    ALL_TIER_PATTERNS,
    CACHE_DIR_ENV,
    ContentAddressedStore,
    DecisionDiskTier,
    resolve_cache_dir,
)
from repro.experiments.results import ExperimentResult


class TestResolveCacheDir:
    def test_argument_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, "/elsewhere")
        assert resolve_cache_dir(tmp_path) == tmp_path

    def test_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        assert resolve_cache_dir(None) == tmp_path

    def test_unset_disables(self, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        assert resolve_cache_dir(None) is None


class TestContentAddressedStore:
    def test_patterns_scope_the_view(self, tmp_path):
        (tmp_path / "a.npz").write_bytes(b"x" * 10)
        (tmp_path / "decisions").mkdir()
        (tmp_path / "decisions" / "k.json").write_bytes(b"{}")
        (tmp_path / "README").write_bytes(b"hello")

        npz = ContentAddressedStore(tmp_path, patterns=("*.npz",))
        assert [p.name for p in npz.entries()] == ["a.npz"]
        both = ContentAddressedStore(tmp_path, patterns=ALL_TIER_PATTERNS)
        assert {p.name for p in both.entries()} == {"a.npz", "k.json"}
        # The README is invisible to every view, prune included.
        both.prune(0)
        assert (tmp_path / "README").exists()
        assert both.entries() == []

    def test_write_atomic_failure_warns_with_label(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        store = ContentAddressedStore(blocker, label="result cache")
        with pytest.warns(RuntimeWarning, match="result cache"):
            assert store.write_atomic(blocker / "x.npz", b"data") is False

    def test_prune_rejects_negative_budget(self, tmp_path):
        with pytest.raises(ValueError):
            ContentAddressedStore(tmp_path).prune(-1)

    def test_missing_directory_is_empty(self, tmp_path):
        store = ContentAddressedStore(tmp_path / "nope")
        assert store.entries() == []
        assert store.size_bytes() == 0


class TestDecisionDiskTier:
    def test_round_trip_and_recency(self, tmp_path):
        tier = DecisionDiskTier(tmp_path)
        key = "a" * 64
        assert tier.get(key) is None
        assert tier.put(key, {"makespan": 1.5, "names": ["x"]})
        assert tier.get(key) == {"makespan": 1.5, "names": ["x"]}
        assert len(tier.entries()) == 1
        assert tier.size_bytes() > 0

    def test_canonical_json_on_disk(self, tmp_path):
        tier = DecisionDiskTier(tmp_path)
        tier.put("b" * 64, {"z": 1, "a": 2})
        raw = tier.path_for("b" * 64).read_text()
        assert raw == '{"a":2,"z":1}'

    def test_unsafe_keys_are_rejected(self, tmp_path):
        tier = DecisionDiskTier(tmp_path)
        for key in ("../escape", "a/b", "", "x" * 256, "sp ace", "caf\u00e9",
                    "\u0663" * 64, "a\n"):
            assert not tier.put(key, {"v": 1})
            assert tier.get(key) is None

    def test_bytes_are_written_as_given(self, tmp_path):
        tier = DecisionDiskTier(tmp_path)
        assert tier.put("c" * 64, b'{"z":1, "a":2}')
        assert tier.path_for("c" * 64).read_bytes() == b'{"z":1, "a":2}'
        assert tier.get("c" * 64) == {"a": 2, "z": 1}

    def test_directory_is_made_once(self, tmp_path, monkeypatch):
        made = []
        mkdir = type(tmp_path).mkdir
        monkeypatch.setattr(type(tmp_path), "mkdir",
                            lambda self, *a, **kw: made.append(self)
                            or mkdir(self, *a, **kw))
        tier = DecisionDiskTier(tmp_path / "fresh")
        assert tier.put("0" * 64, {"v": 0})
        assert made[0] == tmp_path / "fresh" / "decisions"
        first = len(made)
        for i in range(1, 5):
            assert tier.put(f"{i:064x}", {"v": i})
        assert len(made) == first
        assert len(tier.entries()) == 5

    def test_footprint_is_one_pass_at_most_one_stat_per_entry(
            self, tmp_path, monkeypatch):
        tier = DecisionDiskTier(tmp_path)
        for i in range(20):
            tier.put(f"{i:064x}", {"v": i})
        (tmp_path / "decisions" / "stray.json.123-4.tmp").write_text("x")
        (tmp_path / "decisions" / "notes.txt").write_text("x")
        expected = (len(tier.entries()), tier.size_bytes())
        assert expected[0] == 20

        stats = []
        scandir = os.scandir

        class _Entry:
            def __init__(self, entry):
                self._entry = entry
                self.name = entry.name

            def stat(self, **kw):
                stats.append(self.name)
                return self._entry.stat(**kw)

            def __getattr__(self, attr):
                return getattr(self._entry, attr)

        class _Scan:
            def __init__(self, path):
                self._it = scandir(path)

            def __enter__(self):
                return (_Entry(e) for e in self._it)

            def __exit__(self, *exc):
                self._it.close()

        def no_stat(*args, **kwargs):
            raise AssertionError("footprint() must not stat by path")

        def no_listing(*args, **kwargs):
            raise AssertionError("footprint() must not sort or glob")

        monkeypatch.setattr(os, "scandir", _Scan)
        monkeypatch.setattr(os, "stat", no_stat)
        monkeypatch.setattr(ContentAddressedStore, "entries", no_listing)
        assert tier.footprint() == expected
        assert len(stats) == len(set(stats)) == 20

    def test_footprint_of_missing_directory(self, tmp_path):
        assert DecisionDiskTier(tmp_path / "nope").footprint() == (0, 0)

    def test_torn_or_foreign_entries_are_misses(self, tmp_path):
        tier = DecisionDiskTier(tmp_path)
        (tmp_path / "decisions").mkdir()
        (tmp_path / "decisions" / "bad.json").write_text("{ not json")
        (tmp_path / "decisions" / "list.json").write_text("[1, 2]")
        assert tier.get("bad") is None
        assert tier.get("list") is None


class TestResultCacheEmptyData:
    """Satellite bug: StopIteration on a result with no scheduler data."""

    def _result(self):
        return ExperimentResult(
            experiment_id="t",
            title="empty",
            xlabel="n",
            x=np.array([1.0, 2.0]),
            data={},
            meta={"note": "no schedulers"},
        )

    def test_store_and_load_round_trip(self, tmp_path):
        from repro.experiments import ResultCache

        class _Exp:  # duck-typed: only what path_for needs
            experiment_id = "t"
            title = "empty"
            xlabel = "n"
            points = np.array([1.0, 2.0])
            reps = 1
            seed = 0
            schedulers = ()
            metrics = {}
            factory = staticmethod(lambda point, rng: (None, None))
            evaluate = None

        cache = ResultCache(tmp_path)
        exp = _Exp()
        path = cache.store(exp, self._result())  # must not raise
        assert path is not None and path.exists()
        loaded = cache.load(exp)
        assert loaded is not None
        assert loaded.data == {}
        assert loaded.meta == {"note": "no schedulers"}
        assert np.array_equal(loaded.x, np.array([1.0, 2.0]))
        meta = json.loads(str(np.load(path)["meta_json"]))
        assert meta["schedulers"] == [] and meta["metrics"] == []
