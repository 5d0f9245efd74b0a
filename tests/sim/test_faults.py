"""Tests for the declarative fault-injection subsystem."""

from __future__ import annotations

import pytest

from repro.common.errors import SimulationError, SpecError
from repro.sim.engine import Engine
from repro.sim.faults import (
    FaultInjector,
    FaultSchedule,
    Heal,
    LinkDegrade,
    NodeCrash,
    NodeRecover,
    Partition,
    RegionOutage,
    event_summary,
    events_from_dicts,
)


class TestScheduleParsing:
    def test_crash_and_recover_expand_per_node(self):
        events = events_from_dicts([
            {"at": 30, "kind": "crash", "nodes": [0, 1, 2]},
            {"at": 60, "kind": "recover", "nodes": [0, 1, 2]},
        ])
        assert len(events) == 6
        assert all(isinstance(e, NodeCrash) for e in events[:3])
        assert all(isinstance(e, NodeRecover) for e in events[3:])

    def test_single_node_form(self):
        (event,) = events_from_dicts([{"at": 5, "kind": "crash", "node": 7}])
        assert event == NodeCrash(5.0, 7)

    def test_all_kinds_parse(self):
        events = events_from_dicts([
            {"at": 1, "kind": "partition", "groups": [[0, 1], [2, 3]]},
            {"at": 2, "kind": "heal"},
            {"at": 3, "kind": "region_outage", "region": "tokyo",
             "duration": 10},
            {"at": 4, "kind": "link_degrade", "src": "ohio", "dst": "tokyo",
             "extra_latency": 0.2, "drop_rate": 0.1},
        ])
        assert [type(e) for e in events] == [
            Partition, Heal, RegionOutage, LinkDegrade]

    def test_unknown_kind_rejected(self):
        with pytest.raises(SpecError):
            events_from_dicts([{"at": 1, "kind": "meteor-strike"}])

    def test_missing_fields_rejected(self):
        with pytest.raises(SpecError):
            events_from_dicts([{"kind": "crash", "node": 0}])
        with pytest.raises(SpecError):
            events_from_dicts([{"at": 1, "kind": "crash"}])

    def test_schedule_sorts_events_by_time(self):
        schedule = FaultSchedule((Heal(60.0), NodeCrash(30.0, 0)))
        assert [e.time for e in schedule] == [30.0, 60.0]

    def test_negative_time_rejected(self):
        with pytest.raises(SimulationError):
            FaultSchedule((NodeCrash(-1.0, 0),))

    def test_partition_validation(self):
        with pytest.raises(SimulationError):
            Partition(0.0, ())  # no group is not a partition
        # one listed group: the unlisted nodes are the other side
        assert Partition(0.0, ((0, 1),)).groups == ((0, 1),)
        with pytest.raises(SimulationError):
            Partition(0.0, ((0, 1), (1, 2)))  # duplicate membership

    def test_region_outage_needs_positive_duration(self):
        with pytest.raises(SimulationError):
            RegionOutage(0.0, "tokyo", 0.0)

    def test_link_degrade_validation(self):
        with pytest.raises(SimulationError):
            LinkDegrade(0.0, "a", "b", extra_latency=-1.0)
        with pytest.raises(SimulationError):
            LinkDegrade(0.0, "a", "b", drop_rate=1.5)

    def test_fault_window_covers_outage_duration(self, fault_window):
        schedule = FaultSchedule.from_dicts([
            {"at": 10, "kind": "region_outage", "region": "tokyo",
             "duration": 45},
            {"at": 20, "kind": "crash", "node": 0},
        ])
        assert fault_window(schedule) == (10.0, 55.0)

    def test_empty_schedule_has_no_window(self, fault_window):
        assert fault_window(FaultSchedule()) is None

    def test_summaries_are_json_friendly(self):
        summary = event_summary(LinkDegrade(3.0, "a", "b", 0.2, 0.1))
        assert summary == {"at": 3.0, "kind": "link_degrade", "src": "a",
                           "dst": "b", "extra_latency": 0.2, "drop_rate": 0.1}


class TestInjectorTransitions:
    def test_crash_and_recover(self):
        injector = FaultInjector()
        injector.crash(2)
        assert injector.is_crashed(2)
        assert not injector.node_available(2)
        injector.recover(2)
        assert injector.node_available(2)

    def test_partition_separates_groups_only(self):
        injector = FaultInjector()
        injector.partition([[0, 1], [2, 3]])
        assert injector.reachable(0, 1)
        assert not injector.reachable(0, 2)
        # unlisted nodes share the implicit rest group
        assert injector.reachable(7, 8)
        assert not injector.reachable(0, 7)
        injector.heal()
        assert injector.reachable(0, 2)

    def test_region_outage_blocks_by_region(self):
        injector = FaultInjector()
        injector.region_outage("tokyo")
        assert not injector.node_available(0, "tokyo")
        assert injector.node_available(0, "ohio")
        assert not injector.reachable(0, 1, "ohio", "tokyo")
        injector.region_heal("tokyo")
        assert injector.reachable(0, 1, "ohio", "tokyo")

    def test_link_degrade_is_undirected_and_restorable(self):
        injector = FaultInjector()
        injector.degrade_link("a", "b", 0.5, 0.25)
        assert injector.link_state("b", "a") == (0.5, 0.25)
        injector.degrade_link("a", "b", 0.0, 0.0)
        assert injector.link_state("a", "b") == (0.0, 0.0)

    def test_link_faults_add_the_latencies_of_both_links(self):
        injector = FaultInjector()
        injector.degrade_link(0, 1, 0.25, 0.0)
        injector.degrade_link("tokyo", "ohio", 0.5, 0.0)
        assert injector.link_faults(1, 0, "ohio", "tokyo") == (0.75, 0.0)

    def test_link_faults_compose_the_drop_rates_as_independent_losses(self):
        injector = FaultInjector()
        injector.degrade_link(0, 1, 0.0, 0.5)
        injector.degrade_link("ohio", "tokyo", 0.0, 0.2)
        extra, drop = injector.link_faults(0, 1, "ohio", "tokyo")
        assert extra == 0.0
        assert drop == pytest.approx(1 - (1 - 0.5) * (1 - 0.2))

    def test_link_faults_of_a_same_region_pair_ignore_the_region_link(self):
        injector = FaultInjector()
        injector.degrade_link(0, 1, 0.1, 0.3)
        injector.degrade_link("ohio", "ohio", 5.0, 1.0)
        assert injector.link_faults(0, 1, "ohio", "ohio") == (0.1, 0.3)
        assert injector.link_faults(0, 2, "ohio", "ohio") == (0.0, 0.0)

    def test_largest_side_available(self):
        injector = FaultInjector()
        nodes = list(range(10))
        assert injector.largest_side_available(nodes) == 10
        injector.crash(0)
        injector.crash(1)
        assert injector.largest_side_available(nodes) == 8
        injector.partition([[2, 3, 4], [5, 6, 7, 8, 9]])
        assert injector.largest_side_available(nodes) == 5

    def test_listeners_hear_transitions(self):
        injector = FaultInjector()
        heard = []
        injector.subscribe(lambda kind, payload: heard.append(kind))
        injector.crash(0)
        injector.recover(0)
        injector.heal()
        assert heard == ["crash", "recover", "heal"]


class TestScheduleOnEngine:
    def test_events_fire_at_their_times(self):
        engine = Engine()
        schedule = FaultSchedule.from_dicts([
            {"at": 10, "kind": "crash", "node": 0},
            {"at": 20, "kind": "recover", "node": 0},
        ])
        injector = FaultInjector(schedule)
        injector.register(engine)
        engine.run(until=15.0)
        assert injector.is_crashed(0)
        engine.run(until=25.0)
        assert not injector.is_crashed(0)
        assert [kind for _, kind in injector.events_applied] == [
            "crash", "recover"]

    def test_region_outage_auto_heals(self):
        engine = Engine()
        injector = FaultInjector(FaultSchedule.from_dicts([
            {"at": 5, "kind": "region_outage", "region": "tokyo",
             "duration": 10},
        ]))
        injector.register(engine)
        engine.run(until=7.0)
        assert injector.region_down("tokyo")
        engine.run(until=20.0)
        assert not injector.region_down("tokyo")

    def test_register_is_idempotent(self):
        engine = Engine()
        injector = FaultInjector(FaultSchedule((NodeCrash(5.0, 0),)))
        injector.register(engine)
        injector.register(engine)
        engine.run(until=10.0)
        assert len(injector.events_applied) == 1
