"""Tests for the Table-2 regeneration pipeline."""

from __future__ import annotations

import pytest

from repro.workloads import NPB_TABLE2


class TestRegenerateTable2:
    def test_all_six_benchmarks(self, table2):
        assert [b.name for b in table2] == list(NPB_TABLE2)

    def test_paper_constants_carried(self, table2):
        for b in table2:
            w, f, m = NPB_TABLE2[b.name]
            assert b.paper_work == w
            assert b.paper_freq == f
            assert b.paper_miss == m

    def test_apps_inherit_work_and_freq(self, table2):
        for b in table2:
            assert b.app.work == b.paper_work
            assert b.app.access_freq == pytest.approx(b.paper_freq)

    def test_profiled_workload_schedulable(self, table2):
        from repro.core import Workload, dominant_schedule
        from repro.machine import taihulight

        wl = Workload([b.app for b in table2])
        sched = dominant_schedule(wl, taihulight())
        assert sched.is_feasible()
