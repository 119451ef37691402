"""Fault sources, spec parsing, and compilation determinism."""

from __future__ import annotations

import numpy as np
import pytest

from repro.chaos import (
    CompiledFaults,
    CrashRestart,
    FaultEvent,
    FaultSpec,
    Preemption,
    PriorityClasses,
    ProcessorChurn,
    parse_fault_spec,
)
from repro.simulate.kernel import EVENT_KINDS
from repro.types import ModelError


def _pool_sizes(compiled: CompiledFaults, p: float) -> list[float]:
    """Pool size at the start and after each churn event."""
    sizes = [p]
    for ev in compiled.events:
        if ev.kind == "proc_join":
            sizes.append(sizes[-1] + ev.magnitude)
        elif ev.kind == "proc_leave":
            sizes.append(sizes[-1] - ev.magnitude)
    return sizes


class TestParse:
    def test_none_is_empty(self):
        assert parse_fault_spec("none").empty
        assert parse_fault_spec("").empty
        assert parse_fault_spec("  NONE  ").empty

    def test_single_source(self):
        spec = parse_fault_spec("churn:period=2e8,drop=0.1")
        (src,) = spec.sources
        assert isinstance(src, ProcessorChurn)
        assert src.period == 2e8 and src.drop == 0.1
        assert src.min_frac == 0.25  # default survives

    def test_combined_sources_in_order(self):
        spec = parse_fault_spec(
            "churn:period=2e8+crash:hazard=4e-9,delay=5e7"
            "+preempt:period=1e8,duration=2e7,victims=2"
            "+classes:count=3,share=0.2")
        kinds = [type(s) for s in spec.sources]
        assert kinds == [ProcessorChurn, CrashRestart, Preemption,
                         PriorityClasses]
        assert spec.sources[2].victims == 2
        assert spec.sources[3].count == 3

    def test_unknown_source_rejected(self):
        with pytest.raises(ModelError, match="unknown fault spec"):
            parse_fault_spec("meteor:rate=1")

    def test_missing_required_field(self):
        with pytest.raises(ModelError, match="period= is required"):
            parse_fault_spec("churn:drop=0.5")
        with pytest.raises(ModelError, match="delay= is required"):
            parse_fault_spec("crash:hazard=1e-9")

    def test_unknown_field_rejected(self):
        with pytest.raises(ModelError, match="unknown or malformed"):
            parse_fault_spec("churn:period=1e8,rate=3")

    def test_non_numeric_value_rejected(self):
        with pytest.raises(ModelError, match="needs a number"):
            parse_fault_spec("churn:period=fast")

    def test_fractional_victims_rejected(self):
        with pytest.raises(ModelError, match="victims must be an integer"):
            parse_fault_spec("preempt:period=1e8,duration=1e7,victims=1.5")

    def test_two_classes_sources_rejected(self):
        with pytest.raises(ModelError, match="at most one classes"):
            parse_fault_spec("classes:count=2+classes:count=3")


class TestSourceValidation:
    def test_bad_parameters_raise(self):
        with pytest.raises(ModelError):
            ProcessorChurn(period=-1.0)
        with pytest.raises(ModelError):
            ProcessorChurn(period=1.0, drop=1.5)
        with pytest.raises(ModelError):
            ProcessorChurn(period=1.0, min_frac=0.5, max_frac=0.25)
        with pytest.raises(ModelError):
            CrashRestart(hazard=0.0, delay=1.0)
        with pytest.raises(ModelError):
            CrashRestart(hazard=1.0, delay=1.0, lost=1.5)
        with pytest.raises(ModelError):
            Preemption(period=1.0, duration=1.0, victims=0)
        with pytest.raises(ModelError):
            PriorityClasses(count=1)
        with pytest.raises(ModelError):
            PriorityClasses(share=1.0)

    def test_event_validation(self):
        with pytest.raises(ModelError, match="unknown fault event kind"):
            FaultEvent(time=1.0, kind="arrival")
        with pytest.raises(ModelError, match="finite"):
            FaultEvent(time=float("nan"), kind="crash")
        with pytest.raises(ModelError, match=">= 0"):
            FaultEvent(time=-1.0, kind="crash")


class TestCompile:
    def _compile(self, spec, seed=7, n=6, p=64.0, horizon=5e9):
        return parse_fault_spec(spec).compile(
            n, p, horizon, np.random.default_rng(seed))

    def test_pure_function_of_seed(self):
        a = self._compile(
            "churn:period=3e8+crash:hazard=2e-9,delay=1e8"
            "+preempt:period=5e8,duration=1e8+classes:count=2")
        b = self._compile(
            "churn:period=3e8+crash:hazard=2e-9,delay=1e8"
            "+preempt:period=5e8,duration=1e8+classes:count=2")
        assert a.events == b.events
        assert np.array_equal(a.classes, b.classes)

    def test_different_seed_different_stream(self):
        a = self._compile("crash:hazard=2e-9,delay=1e8", seed=1)
        b = self._compile("crash:hazard=2e-9,delay=1e8", seed=2)
        assert a.events != b.events

    def test_events_time_sorted_with_kernel_tiebreak(self):
        compiled = self._compile(
            "churn:period=3e8+crash:hazard=2e-9,delay=1e8"
            "+preempt:period=5e8,duration=1e8,victims=2")
        keys = [(e.time, EVENT_KINDS.index(e.kind), e.target)
                for e in compiled.events]
        assert keys == sorted(keys)

    def test_horizon_bounds_every_event(self):
        compiled = self._compile("crash:hazard=2e-9,delay=1e8", horizon=2e9)
        assert compiled.horizon == 2e9
        assert all(e.time < 2e9 for e in compiled.events)
        assert all(e.kind == "crash" and 0 <= e.target < 6
                   for e in compiled.events)

    def test_churn_respects_clamp(self):
        compiled = self._compile(
            "churn:period=1e8,drop=0.5,min=0.25,max=0.75", horizon=1e10)
        # first entry is the nominal pool (the platform starts whole,
        # even above the churn ceiling); every move lands in the clamp
        pools = _pool_sizes(compiled, 64.0)[1:]
        assert len(pools) > 10  # the clamp flips direction, never stalls
        assert min(pools) >= 0.25 * 64.0 - 1e-9
        assert max(pools) <= 0.75 * 64.0 + 1e-9

    def test_preempt_victims_distinct_per_slice(self):
        compiled = self._compile(
            "preempt:period=5e8,duration=1e8,victims=3", horizon=5e9)
        by_time: dict[float, list[int]] = {}
        for e in compiled.events:
            by_time.setdefault(e.time, []).append(e.target)
        for victims in by_time.values():
            assert len(victims) == 3
            assert len(set(victims)) == 3

    def test_classes_assignment(self):
        compiled = self._compile("classes:count=3,share=0.2", n=20)
        assert compiled.low_share == 0.2
        assert compiled.classes.shape == (20,)
        assert set(np.unique(compiled.classes)) <= {0, 1, 2}

    def test_classless_spec_has_no_assignment(self):
        compiled = self._compile("churn:period=3e8")
        assert compiled.classes is None
        assert compiled.low_share == 0.0

    def test_bad_scenario_rejected(self):
        spec = parse_fault_spec("churn:period=1e8")
        with pytest.raises(ModelError, match="at least one application"):
            spec.compile(0, 64.0, 1e9, np.random.default_rng(0))
        with pytest.raises(ModelError, match="horizon"):
            spec.compile(4, 64.0, 0.0, np.random.default_rng(0))

    def test_duplicate_classes_rejected_at_spec_level(self):
        with pytest.raises(ModelError, match="at most one classes"):
            FaultSpec(sources=(PriorityClasses(), PriorityClasses()))

    def test_compiled_default_is_calm(self):
        calm = CompiledFaults()
        assert calm.events == () and calm.classes is None
        assert _pool_sizes(calm, 64.0) == [64.0]
