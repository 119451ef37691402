"""Tests for the Application/Workload data model."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Application, Workload
from repro.machine import taihulight
from repro.types import ModelError


def _app(**kw):
    base = dict(name="T", work=1e9, seq_fraction=0.1, access_freq=0.5, miss_rate=0.01)
    base.update(kw)
    return Application(**base)


class TestApplicationValidation:
    def test_valid(self):
        app = _app()
        assert app.work == 1e9
        assert not app.is_perfectly_parallel

    def test_perfectly_parallel_flag(self):
        assert _app(seq_fraction=0.0).is_perfectly_parallel

    @pytest.mark.parametrize("field,value", [
        ("work", 0.0),
        ("work", -1.0),
        ("work", math.inf),
        ("seq_fraction", -0.1),
        ("seq_fraction", 1.1),
        ("access_freq", -1.0),
        ("miss_rate", -0.01),
        ("miss_rate", 1.5),
        ("footprint", 0.0),
        ("footprint", -5.0),
        ("footprint", math.nan),
        ("baseline_cache", 0.0),
    ])
    def test_rejects_invalid(self, field, value):
        with pytest.raises(ModelError):
            _app(**{field: value})

    def test_miss_coefficient(self):
        pf = taihulight()
        app = _app(miss_rate=0.02, baseline_cache=40e6)
        expected = 0.02 * (40e6 / pf.cache_size) ** pf.alpha
        assert app.miss_coefficient(pf) == pytest.approx(expected)

    def test_scaled(self):
        app = _app().scaled(work=5e9, seq_fraction=0.3)
        assert app.work == 5e9
        assert app.seq_fraction == 0.3
        assert app.name == "T"

    def test_frozen(self):
        with pytest.raises(AttributeError):
            _app().work = 2.0  # type: ignore[misc]


class TestWorkload:
    def test_columns_match_apps(self):
        apps = [_app(name=f"T{i}", work=(i + 1) * 1e8) for i in range(4)]
        wl = Workload(apps)
        assert wl.n == 4
        assert np.allclose(wl.work, [(i + 1) * 1e8 for i in range(4)])
        assert wl.names == ("T0", "T1", "T2", "T3")

    def test_empty_rejected(self):
        with pytest.raises(ModelError):
            Workload([])

    def test_columns_readonly(self):
        wl = Workload([_app()])
        with pytest.raises(ValueError):
            wl.work[0] = 1.0

    def test_sequence_protocol(self):
        apps = [_app(name=f"T{i}") for i in range(3)]
        wl = Workload(apps)
        assert wl[0].name == "T0"
        assert [a.name for a in wl] == ["T0", "T1", "T2"]
        assert len(wl) == 3
        sliced = wl[1:]
        assert isinstance(sliced, Workload)
        assert sliced.names == ("T1", "T2")

    def test_subset_bool_mask(self):
        wl = Workload([_app(name=f"T{i}") for i in range(4)])
        sub = wl.subset(np.array([True, False, True, False]))
        assert sub.names == ("T0", "T2")

    def test_subset_index_array(self):
        wl = Workload([_app(name=f"T{i}") for i in range(4)])
        sub = wl.subset(np.array([3, 1]))
        assert sub.names == ("T3", "T1")

    def test_subset_wrong_length_mask(self):
        wl = Workload([_app(), _app()])
        with pytest.raises(ModelError):
            wl.subset(np.array([True]))

    def test_with_sequential_fraction_scalar(self):
        wl = Workload([_app(), _app()]).with_sequential_fraction(0.05)
        assert np.allclose(wl.seq, 0.05)

    def test_with_sequential_fraction_vector(self):
        wl = Workload([_app(), _app()]).with_sequential_fraction([0.0, 0.2])
        assert np.allclose(wl.seq, [0.0, 0.2])

    def test_with_miss_rate(self):
        wl = Workload([_app(), _app()]).with_miss_rate(0.3)
        assert np.allclose(wl.miss0, 0.3)

    def test_is_perfectly_parallel(self):
        assert Workload([_app(seq_fraction=0.0)]).is_perfectly_parallel
        assert not Workload([_app(seq_fraction=0.01)]).is_perfectly_parallel

    def test_miss_coefficients_match_scalar(self):
        pf = taihulight()
        apps = [_app(miss_rate=0.01), _app(miss_rate=0.02)]
        wl = Workload(apps)
        d = wl.miss_coefficients(pf)
        assert d[0] == pytest.approx(apps[0].miss_coefficient(pf))
        assert d[1] == pytest.approx(apps[1].miss_coefficient(pf))

    def test_repr_truncates(self):
        wl = Workload([_app(name=f"T{i}") for i in range(10)])
        assert "10 total" in repr(wl)


_FIELDS = ("work", "seq_fraction", "access_freq", "miss_rate", "footprint",
           "baseline_cache")

#: Values each Application field rejects: NaN, negatives, > 1 where
#: bounded, inf where a finite value is needed, 0 where > 0 is needed.
_BAD_VALUES = {
    "work": (math.nan, -1.0, 0.0, math.inf, -math.inf),
    "seq_fraction": (math.nan, -0.1, 1.5, math.inf),
    "access_freq": (math.nan, -1.0, math.inf),
    "miss_rate": (math.nan, -0.01, 1.5, math.inf),
    "footprint": (math.nan, 0.0, -5.0, -math.inf),
    "baseline_cache": (math.nan, 0.0, -1.0, math.inf),
}

_good_columns = st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.lists(st.floats(1e6, 1e12), min_size=n, max_size=n),
    st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n),
    st.lists(st.floats(0.0, 2.0), min_size=n, max_size=n),
    st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n),
    st.lists(st.one_of(st.just(math.inf), st.floats(1e5, 1e11)),
             min_size=n, max_size=n),
    st.lists(st.floats(1e6, 1e9), min_size=n, max_size=n),
))


def _per_app(names, columns) -> Workload:
    return Workload(Application(name, *values)
                    for name, *values in zip(names, *columns))


class TestFromColumns:
    @given(columns=_good_columns, data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_one_bad_column_raises_the_per_app_message(self, columns, data):
        n = len(columns[0])
        names = [f"A{i}" for i in range(n)]
        k = data.draw(st.integers(0, 5))
        value = data.draw(st.sampled_from(_BAD_VALUES[_FIELDS[k]]))
        rows = data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                  unique=True))
        columns = [list(col) for col in columns]
        for i in rows:
            columns[k][i] = value
        with pytest.raises(ModelError) as want:
            _per_app(names, columns)
        with pytest.raises(ModelError) as got:
            Workload.from_columns(names, *columns)
        assert str(got.value) == str(want.value)
        assert f"A{min(rows)}: {_FIELDS[k]} must" in str(got.value)

    @given(columns=_good_columns)
    @settings(max_examples=60, deadline=None)
    def test_good_columns_equal_the_per_app_workload(self, columns):
        names = [f"A{i}" for i in range(len(columns[0]))]
        live = Workload.from_columns(names, *columns)
        ref = _per_app(names, columns)
        for name in ("work", "seq", "freq", "miss0", "footprint",
                     "baseline_cache"):
            assert getattr(live, name).tobytes() == getattr(ref, name).tobytes()
            assert not getattr(live, name).flags.writeable
        assert live.names == ref.names
        assert list(live) == list(ref)

    def test_scalars_broadcast(self):
        wl = Workload.from_columns(["a", "b"], [1e9, 2e9], 0.1, 0.5, 0.01)
        assert wl.seq.tolist() == [0.1, 0.1]
        assert np.isinf(wl.footprint).all()
        assert (wl.baseline_cache == 40e6).all()
        assert wl[1] == _app(name="b", work=2e9)

    def test_columns_are_copied(self):
        work = np.array([1e9, 2e9])
        wl = Workload.from_columns(["a", "b"], work, 0.0, 0.5, 0.01)
        work[0] = 5.0
        assert wl.work[0] == 1e9 and work.flags.writeable

    def test_shape_checked(self):
        with pytest.raises(ModelError, match="seq must be a scalar or have shape"):
            Workload.from_columns(["a", "b"], [1e9, 2e9], [0.1, 0.2, 0.3], 0.5, 0.01)

    def test_no_names_rejected(self):
        with pytest.raises(ModelError, match="at least one application"):
            Workload.from_columns([], [], [], [], [])

    def test_reshaping_matches_the_per_app_workload(self):
        names = [f"T{i}" for i in range(5)]
        columns = ([1e9, 2e9, 3e9, 4e9, 5e9], 0.1, 0.5, 0.01)
        live = Workload.from_columns(names, *columns)
        ref = Workload(list(live))
        mask = np.array([True, False, True, True, False])
        for make in (lambda w: w.subset(mask), lambda w: w.subset([4, 0, -1]),
                     lambda w: w[1:4], lambda w: w[::-2]):
            got, want = make(live), make(ref)
            assert got.names == want.names
            assert got.work.tobytes() == want.work.tobytes()
            assert not got.work.flags.writeable
            assert list(got) == list(want)
        with pytest.raises(ModelError, match="at least one application"):
            live[5:]
        with pytest.raises(ModelError, match="at least one application"):
            live.subset(np.zeros(5, dtype=bool))

    def test_subset_keeps_given_applications(self):
        apps = [_app(name=f"T{i}") for i in range(3)]
        sub = Workload(apps).subset([2, 0])
        assert sub[0] is apps[2] and sub[1] is apps[0]
