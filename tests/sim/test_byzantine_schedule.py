"""The Byzantine schedule dialect: parsing, validation, forking."""

from __future__ import annotations

import pytest

from repro.common.errors import SpecError
from repro.consensus.base import Message
from repro.sim.byzantine import (
    EQUIVOCATION_MARK,
    ByzantineSchedule,
    CensorLeader,
    DelayReorder,
    Equivocate,
    Silence,
    byzantine_event_kind,
    byzantine_events_from_dicts,
    equivocal_variant,
)


class TestParsing:
    def test_all_kinds_parse(self):
        events = byzantine_events_from_dicts([
            {"start": 10, "stop": 30, "kind": "equivocate", "node": 0},
            {"start": 10, "stop": 30, "kind": "silence", "nodes": [1, 2]},
            {"start": 5, "stop": 20, "kind": "delay_reorder", "node": 3,
             "min_delay": 0.1, "max_delay": 0.4},
            {"start": 0, "stop": 15, "kind": "censor_leader", "node": 1},
        ])
        kinds = sorted(byzantine_event_kind(e) for e in events)
        assert kinds == ["censor_leader", "delay_reorder", "equivocate",
                         "silence", "silence"]

    def test_nodes_list_expands_to_one_event_per_node(self):
        events = byzantine_events_from_dicts([
            {"start": 0, "stop": 5, "kind": "silence", "nodes": [0, 1, 2]}])
        assert [e.node for e in events] == [0, 1, 2]
        assert all(isinstance(e, Silence) for e in events)

    def test_delay_bounds_carried(self):
        (event,) = byzantine_events_from_dicts([
            {"start": 0, "stop": 5, "kind": "delay_reorder", "node": 0,
             "min_delay": 0.2, "max_delay": 0.3}])
        assert (event.min_delay, event.max_delay) == (0.2, 0.3)

    def test_schedule_sorts_events(self):
        schedule = ByzantineSchedule((
            Silence(start=5.0, stop=9.0, node=1),
            Equivocate(start=1.0, stop=4.0, node=0)))
        assert [e.start for e in schedule] == [1.0, 5.0]


class TestFailFast:
    """Satellite: malformed specs die at parse time with a SpecError."""

    def test_entry_must_be_mapping(self):
        with pytest.raises(SpecError, match="mapping"):
            byzantine_events_from_dicts(["equivocate"])

    def test_missing_keys(self):
        with pytest.raises(SpecError, match="start: missing required key"):
            byzantine_events_from_dicts([{"kind": "silence", "node": 0}])

    def test_unknown_kind(self):
        with pytest.raises(SpecError, match="kind: unknown kind"):
            byzantine_events_from_dicts([
                {"start": 0, "stop": 5, "kind": "bribe", "node": 0}])

    def test_node_must_be_index(self):
        with pytest.raises(SpecError, match="node: expected an integer"):
            byzantine_events_from_dicts([
                {"start": 0, "stop": 5, "kind": "silence",
                 "node": "validator-0"}])

    def test_missing_node(self):
        with pytest.raises(SpecError, match="node: missing required key"):
            byzantine_events_from_dicts([
                {"start": 0, "stop": 5, "kind": "silence"}])

    def test_window_must_open_before_close(self):
        with pytest.raises(SpecError, match="close after it opens"):
            Equivocate(start=5.0, stop=5.0, node=0)

    def test_window_cannot_open_before_zero(self):
        with pytest.raises(SpecError, match="before t=0"):
            Silence(start=-1.0, stop=5.0, node=0)

    def test_delay_bounds_checked(self):
        with pytest.raises(SpecError, match="min_delay"):
            DelayReorder(start=0.0, stop=5.0, node=0, min_delay=-0.1)
        with pytest.raises(SpecError, match="max_delay"):
            DelayReorder(start=0.0, stop=5.0, node=0,
                         min_delay=0.5, max_delay=0.1)

    def test_validate_rejects_unknown_node(self):
        schedule = ByzantineSchedule((
            Equivocate(start=0.0, stop=5.0, node=7),))
        with pytest.raises(SpecError) as excinfo:
            schedule.validate(4)
        # the offending event's summary is in the message
        assert "equivocate" in str(excinfo.value)
        assert "7" in str(excinfo.value)

    def test_validate_accepts_in_range(self):
        schedule = ByzantineSchedule((
            Equivocate(start=0.0, stop=5.0, node=3),))
        schedule.validate(4)


class TestScheduleQueries:
    def schedule(self):
        return ByzantineSchedule((
            Equivocate(start=2.0, stop=8.0, node=0),
            Silence(start=4.0, stop=10.0, node=2)))

    def test_window_spans_all_events(self, fault_window):
        assert fault_window(self.schedule()) == (2.0, 10.0)
        assert fault_window(ByzantineSchedule()) is None

    def test_nodes(self):
        assert self.schedule().nodes() == (0, 2)

    def test_active_nodes_respects_half_open_windows(self):
        schedule = self.schedule()
        assert schedule.active_nodes(1.0) == set()
        assert schedule.active_nodes(2.0) == {0}
        assert schedule.active_nodes(5.0) == {0, 2}
        assert schedule.active_nodes(8.0) == {2}
        assert schedule.active_nodes(10.0) == set()

    def test_active_fraction(self):
        schedule = self.schedule()
        assert schedule.active_fraction(5.0, 4) == pytest.approx(0.5)
        assert schedule.active_fraction(1.0, 4) == 0.0
        assert schedule.active_fraction(5.0, 0) == 0.0

    def test_summaries_share_the_fault_event_envelope(self):
        summaries = self.schedule().summaries()
        assert summaries[0] == {"at": 2.0, "kind": "equivocate",
                                "node": 0, "duration": 6.0}
        assert all({"at", "kind", "node", "duration"} <= set(s)
                   for s in summaries)


class TestEquivocalVariant:
    def test_marked_variant_forks_value_fields(self):
        message = Message(kind="proposal", sender=0,
                         payload={"height": 3, "value": "tx-9"})
        forked, changed = equivocal_variant(message, marked=True)
        assert changed
        assert forked.payload["value"] == "tx-9" + EQUIVOCATION_MARK
        assert forked.payload["height"] == 3
        # the original is never mutated
        assert message.payload["value"] == "tx-9"

    def test_unmarked_variant_strips_the_mark(self):
        message = Message(kind="proposal", sender=0,
                         payload={"value": "tx-9" + EQUIVOCATION_MARK})
        plain, changed = equivocal_variant(message, marked=False)
        assert changed
        assert plain.payload["value"] == "tx-9"

    def test_certificate_subtrees_pass_through(self):
        justify = {"view": 2, "value": "tx-1"}
        message = Message(kind="vote", sender=1,
                         payload={"value": "tx-2", "justify": justify})
        forked, changed = equivocal_variant(message, marked=True)
        assert changed
        # the justify subtree is the same object, not a forked copy
        assert forked.payload["justify"] is justify

    def test_no_value_fields_means_no_new_message(self):
        message = Message(kind="ack", sender=2, payload={"term": 4})
        same, changed = equivocal_variant(message, marked=True)
        assert not changed
        assert same is message
