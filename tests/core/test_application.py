"""Tests for the Application/Workload data model."""

from __future__ import annotations

import math

import numpy as np
import pytest

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
