"""The fault_window repair/disruption classification edge cases.

``BenchmarkResult.fault_window`` is the one fault-window definition: a
run's window is computed from its recorded event summaries, so a
schedule's window is that of ``schedule.summaries()``.

A schedule (or result event log) containing only *repairs* — recoveries,
heals, link restores — never degraded anything: its window must be
``None``, not a zero-length disruption at the first repair's timestamp.
That edge case used to make the degradation metrics of recover-only
schedules report a spurious dip at the recovery time.
"""

from __future__ import annotations

import pytest

from repro.common.errors import SpecError
from repro.core.results import BenchmarkResult
from repro.sim.faults import FaultSchedule, events_from_dicts


def result_with(fault_events):
    return BenchmarkResult(chain="quorum", configuration="testnet",
                           workload_name="w", duration=90.0, scale=1.0,
                           fault_events=fault_events)


class TestScheduleWindow:
    def test_recover_only_schedule_has_no_window(self, fault_window):
        schedule = FaultSchedule.from_dicts([
            {"at": 60, "kind": "recover", "nodes": [0, 1]}])
        assert fault_window(schedule) is None

    def test_heal_only_schedule_has_no_window(self, fault_window):
        schedule = FaultSchedule.from_dicts([{"at": 45, "kind": "heal"}])
        assert fault_window(schedule) is None

    def test_link_restore_only_is_a_repair(self, fault_window):
        schedule = FaultSchedule.from_dicts([
            {"at": 30, "kind": "link_degrade", "src": 0, "dst": 1,
             "extra_latency": 0, "drop_rate": 0}])
        assert fault_window(schedule) is None

    def test_crash_then_recover_spans_both(self, fault_window):
        schedule = FaultSchedule.from_dicts([
            {"at": 30, "kind": "crash", "node": 0},
            {"at": 60, "kind": "recover", "node": 0}])
        assert fault_window(schedule) == (30.0, 60.0)

    def test_early_recover_does_not_open_the_window(self, fault_window):
        # a recovery *before* the first disruption is a leftover repair;
        # the window must open at the crash, not the recovery
        schedule = FaultSchedule.from_dicts([
            {"at": 10, "kind": "recover", "node": 1},
            {"at": 30, "kind": "crash", "node": 0},
            {"at": 60, "kind": "recover", "node": 0}])
        assert fault_window(schedule) == (30.0, 60.0)

    def test_region_outage_closes_at_duration_end(self, fault_window):
        schedule = FaultSchedule.from_dicts([
            {"at": 10, "kind": "region_outage", "region": "tokyo",
             "duration": 20}])
        assert fault_window(schedule) == (10.0, 30.0)

    def test_degrading_link_opens_the_window(self, fault_window):
        schedule = FaultSchedule.from_dicts([
            {"at": 5, "kind": "link_degrade", "src": 0, "dst": 1,
             "extra_latency": 0.2, "drop_rate": 0.0}])
        assert fault_window(schedule) == (5.0, 5.0)


class TestScheduleValidation:
    def test_unknown_crash_node_rejected(self):
        schedule = FaultSchedule.from_dicts([
            {"at": 30, "kind": "crash", "node": 42}])
        with pytest.raises(SpecError, match="unknown node 42"):
            schedule.validate({0, 1, 2, 3})

    def test_known_nodes_and_regions_accepted(self):
        schedule = FaultSchedule.from_dicts([
            {"at": 30, "kind": "crash", "node": 0},
            {"at": 40, "kind": "region_outage", "region": "tokyo",
             "duration": 5},
            {"at": 50, "kind": "link_degrade", "src": 0, "dst": "tokyo",
             "extra_latency": 0.1, "drop_rate": 0.0}])
        schedule.validate({0, 1, "tokyo"}, regions=("tokyo",))

    def test_unknown_outage_region_rejected(self):
        schedule = FaultSchedule.from_dicts([
            {"at": 40, "kind": "region_outage", "region": "atlantis",
             "duration": 5}])
        with pytest.raises(SpecError, match="atlantis"):
            schedule.validate({0, 1}, regions=("tokyo",))


class TestResultWindow:
    def test_recover_only_events_have_no_window(self):
        result = result_with([{"at": 60.0, "kind": "recover", "node": 0}])
        assert result.fault_window() is None
        assert result.degradation() is None

    def test_crash_recover_window(self):
        result = result_with([
            {"at": 30.0, "kind": "crash", "node": 0},
            {"at": 60.0, "kind": "recover", "node": 0}])
        assert result.fault_window() == (30.0, 60.0)

    def test_byzantine_summary_counts_as_disruption(self):
        result = result_with([
            {"at": 10.0, "kind": "equivocate", "node": 0,
             "duration": 15.0}])
        assert result.fault_window() == (10.0, 25.0)

    def test_link_restore_summary_is_a_repair(self):
        result = result_with([
            {"at": 20.0, "kind": "link_degrade", "src": 0, "dst": 1,
             "extra_latency": 0.0, "drop_rate": 0.0}])
        assert result.fault_window() is None
