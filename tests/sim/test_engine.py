"""Tests for the discrete-event engine."""

from __future__ import annotations

from functools import partial
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional, Tuple
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import SimulationError
from repro.sim import engine as engine_module
from repro.sim.engine import Engine, PeriodicTask


class TestScheduling:
    def test_starts_at_time_zero(self, engine):
        assert engine.now == 0.0

    def test_schedule_at_runs_at_requested_time(self, engine):
        seen = []
        engine.schedule_at(5.0, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [5.0]

    def test_schedule_after_is_relative(self, engine):
        seen = []
        engine.schedule_at(3.0, lambda: engine.schedule_after(
            2.0, lambda: seen.append(engine.now)))
        engine.run()
        assert seen == [5.0]

    def test_events_run_in_time_order(self, engine):
        seen = []
        engine.schedule_at(2.0, lambda: seen.append("b"))
        engine.schedule_at(1.0, lambda: seen.append("a"))
        engine.schedule_at(3.0, lambda: seen.append("c"))
        engine.run()
        assert seen == ["a", "b", "c"]

    def test_same_time_events_run_in_insertion_order(self, engine):
        seen = []
        for tag in ("first", "second", "third"):
            engine.schedule_at(1.0, lambda t=tag: seen.append(t))
        engine.run()
        assert seen == ["first", "second", "third"]

    def test_scheduling_in_the_past_raises(self, engine):
        engine.schedule_at(5.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.schedule_at(1.0, lambda: None)

    def test_negative_delay_raises(self, engine):
        with pytest.raises(SimulationError):
            engine.schedule_after(-0.1, lambda: None)


class TestCancellation:
    def test_cancelled_event_does_not_run(self, engine):
        seen = []
        handle = engine.schedule_at(1.0, lambda: seen.append("x"))
        handle.cancel()
        engine.run()
        assert seen == []
        assert handle.cancelled

    def test_cancel_is_idempotent(self, engine):
        handle = engine.schedule_at(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        engine.run()

    def test_other_events_survive_a_cancellation(self, engine):
        seen = []
        handle = engine.schedule_at(1.0, lambda: seen.append("a"))
        engine.schedule_at(2.0, lambda: seen.append("b"))
        handle.cancel()
        engine.run()
        assert seen == ["b"]

    def test_dead_entries_are_compacted_and_order_holds(self, engine):
        seen = []
        handles = [engine.schedule_at(float(i % 7), lambda i=i: seen.append(i))
                   for i in range(1000)]
        for handle in handles[:900]:
            handle.cancel()
        # compaction ran whenever the dead outnumbered 64 and half the heap
        assert len(engine._queue) <= 2 * 100 + engine_module.COMPACT_MIN
        engine.run()
        assert seen == sorted(range(900, 1000), key=lambda i: (i % 7, i))
        assert engine.events_executed == 100


class TestRun:
    def test_run_until_advances_clock_to_horizon(self, engine):
        engine.schedule_at(1.0, lambda: None)
        engine.run(until=10.0)
        assert engine.now == 10.0

    def test_run_until_does_not_execute_later_events(self, engine):
        seen = []
        engine.schedule_at(1.0, lambda: seen.append("early"))
        engine.schedule_at(20.0, lambda: seen.append("late"))
        engine.run(until=10.0)
        assert seen == ["early"]
        engine.run()
        assert seen == ["early", "late"]

    def test_max_events_bounds_execution(self, engine):
        seen = []

        def reschedule():
            seen.append(engine.now)
            engine.schedule_after(1.0, reschedule)

        engine.schedule_at(0.0, reschedule)
        engine.run(max_events=5)
        assert len(seen) == 5

    def test_events_executed_counter(self, engine):
        for i in range(7):
            engine.schedule_at(float(i), lambda: None)
        engine.run()
        assert engine.events_executed == 7

    def test_engine_is_not_reentrant(self, engine):
        def recurse():
            with pytest.raises(SimulationError):
                engine.run()

        engine.schedule_at(1.0, recurse)
        engine.run()

    def test_a_run_cut_by_max_events_keeps_the_clock_at_its_last_event(
            self, engine):
        seen = []
        for time in (1.0, 2.0, 3.0):
            engine.schedule_at(time, lambda: seen.append(engine.now))
        engine.run(until=10.0, max_events=1)
        assert seen == [1.0] and engine.now == 1.0
        # the calendar still holds 2.0 and 3.0, so 5.0 is in the future
        engine.schedule_at(5.0, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [1.0, 2.0, 3.0, 5.0]

    def test_max_events_at_the_last_live_entry_still_reaches_the_horizon(
            self, engine):
        engine.schedule_at(1.0, lambda: None)
        engine.schedule_at(20.0, lambda: None)
        engine.run(until=10.0, max_events=1)
        assert engine.now == 10.0
        engine.run(max_events=1)
        assert engine.now == 20.0
        engine.run(until=30.0, max_events=1)
        assert engine.now == 30.0

    def test_a_callback_sees_its_own_event_counted(self, engine):
        seen = []
        for time in (1.0, 2.0):
            engine.schedule_at(
                time, lambda: seen.append(engine.events_executed))
        engine.run()
        assert seen == [1, 2]

    def test_a_raising_callback_is_counted_and_the_run_resumes(self, engine):
        seen = []

        def fail():
            raise RuntimeError("boom")

        engine.schedule_at(1.0, lambda: seen.append(engine.now))
        engine.schedule_at(2.0, fail)
        engine.schedule_at(3.0, lambda: seen.append(engine.now))
        with pytest.raises(RuntimeError):
            engine.run(until=10.0)
        assert engine.events_executed == 2 and engine.now == 2.0
        engine.run(until=10.0)
        assert seen == [1.0, 3.0]
        assert engine.events_executed == 3 and engine.now == 10.0

    def test_max_events_zero_executes_nothing(self, engine):
        seen = []
        engine.schedule_at(1.0, lambda: seen.append(engine.now))
        engine.run(until=5.0, max_events=0)
        engine.run(max_events=0)
        assert seen == [] and engine.events_executed == 0
        assert engine.now == 0.0
        engine.run()
        assert seen == [1.0]

class TestPeriodicTask:
    def test_fires_at_fixed_period(self, engine):
        seen = []
        PeriodicTask(engine, 1.0, lambda: seen.append(engine.now))
        engine.run(until=3.5)
        assert seen == [0.0, 1.0, 2.0, 3.0]

    def test_stop_halts_future_firings(self, engine):
        seen = []
        task = PeriodicTask(engine, 1.0, lambda: seen.append(engine.now))
        engine.schedule_at(1.5, task.stop)
        engine.run(until=5.0)
        assert seen == [0.0, 1.0]
        assert task.stopped

    def test_stopiteration_stops_the_task(self, engine):
        seen = []

        def tick():
            seen.append(engine.now)
            if len(seen) == 3:
                raise StopIteration

        task = PeriodicTask(engine, 1.0, tick)
        engine.run(until=10.0)
        assert len(seen) == 3
        assert task.stopped

    def test_start_at_offsets_first_firing(self, engine):
        seen = []
        PeriodicTask(engine, 1.0, lambda: seen.append(engine.now),
                     start_at=2.5)
        engine.run(until=4.0)
        assert seen == [2.5, 3.5]

    def test_zero_period_rejected(self, engine):
        with pytest.raises(SimulationError):
            PeriodicTask(engine, 0.0, lambda: None)


class TestScheduleBatch:
    """schedule_batch is schedule_at per item, minus the handles."""

    def test_batch_equals_sequential_scheduling(self, engine):
        items = [(0.5, "a"), (0.2, "b"), (0.5, "c"), (0.1, "d"), (0.2, "e")]
        order_batch, order_seq = [], []
        engine.schedule_batch(
            [(t, (lambda n=n: order_batch.append((engine.now, n))))
             for t, n in items], "batch")
        engine.run()
        reference = Engine()
        for t, n in items:
            reference.schedule_at(
                t, (lambda n=n: order_seq.append((reference.now, n))))
        reference.run()
        assert order_batch == order_seq
        assert [n for _, n in order_batch] == ["d", "b", "e", "a", "c"]
        assert engine.events_executed == reference.events_executed == 5

    def test_batch_ties_break_in_item_order(self, engine):
        ran = []
        engine.schedule_batch(
            [(1.0, (lambda i=i: ran.append(i))) for i in range(5)])
        engine.run()
        assert ran == [0, 1, 2, 3, 4]

    def test_batch_interleaves_with_singles_by_sequence(self, engine):
        ran = []
        engine.schedule_at(1.0, lambda: ran.append("single-first"))
        engine.schedule_batch([(1.0, lambda: ran.append("batched-1")),
                               (1.0, lambda: ran.append("batched-2"))])
        engine.schedule_at(1.0, lambda: ran.append("single-last"))
        engine.run()
        assert ran == ["single-first", "batched-1", "batched-2",
                       "single-last"]

    def test_batch_accepts_a_generator_and_the_current_instant(self, engine):
        ran = []
        engine.schedule_at(2.0, lambda: engine.schedule_batch(
            (engine.now + d, (lambda d=d: ran.append(d)))
            for d in (0.0, 1.0)))
        engine.run()
        assert ran == [0.0, 1.0]

    def test_batch_rejects_past_times_and_stays_usable(self, engine):
        engine.schedule_at(5.0, lambda: None)
        engine.run()
        ran = []
        with pytest.raises(SimulationError):
            engine.schedule_batch([(6.0, lambda: ran.append("before")),
                                   (1.0, lambda: ran.append("late")),
                                   (7.0, lambda: ran.append("after"))],
                                  "late")
        # as with schedule_at in a loop: what preceded the bad item is on
        # the calendar, what followed is not, and ties still break in order
        engine.schedule_at(6.0, lambda: ran.append("single"))
        engine.run()
        assert ran == ["before", "single"]

    def test_batch_labels_reach_the_profiler(self, engine):
        seen = []

        class Recorder:
            def record(self, label, callback):
                seen.append(label)
                callback()

        engine.profiler = Recorder()
        engine.schedule_batch([(1.0, lambda: None), (2.0, lambda: None)],
                              "msg-vote")
        engine.run()
        assert seen == ["msg-vote", "msg-vote"]

    def test_empty_batch_is_a_noop(self, engine):
        engine.schedule_batch([])
        engine.run()
        assert engine.events_executed == 0
        assert engine.now == 0.0


class ListCalendar:
    """The calendar's contract by linear scan: the earliest (time,
    insertion) pending entry runs next; a cancelled one is simply gone."""

    def __init__(self) -> None:
        self.pending: Dict[int, Tuple[float, Callable[[], None]]] = {}
        self.now = 0.0
        self.sequence = 0
        self.events_executed = 0

    def schedule_at(self, time: float, callback: Callable[[], None]):
        self.pending[self.sequence] = (time, callback)
        self.sequence += 1
        return SimpleNamespace(
            cancel=partial(self.pending.pop, self.sequence - 1, None))

    def schedule_after(self, delay: float, callback: Callable[[], None]):
        return self.schedule_at(self.now + delay, callback)

    def schedule_batch(self, items) -> None:
        for time, callback in items:
            self.schedule_at(time, callback)

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        executed = 0
        while self.pending:
            sequence = min(self.pending,
                           key=lambda s: (self.pending[s][0], s))
            time, callback = self.pending[sequence]
            if until is not None and time > until:
                break
            if max_events is not None and executed >= max_events:
                # a pending entry is due by the horizon: the clock stays
                return
            del self.pending[sequence]
            self.now = time
            self.events_executed += 1
            executed += 1
            callback()
        if until is not None and self.now < until:
            self.now = until


class Script:
    """Drives one calendar through steps; an event's callback logs itself
    and then performs the action the script assigns to its id."""

    def __init__(self, calendar, actions: List[Tuple]) -> None:
        self.calendar = calendar
        self.actions = actions
        # one per event id; None for a batched event, which has no handle
        self.handles: List[Optional[Any]] = []
        self.log: List[Tuple[int, float]] = []

    def apply(self, step: Tuple) -> None:
        calendar, kind, handles = self.calendar, step[0], self.handles
        if kind == "at":
            handles.append(calendar.schedule_at(
                calendar.now + step[1], partial(self.fire, len(handles))))
        elif kind == "after":
            handles.append(calendar.schedule_after(
                step[1], partial(self.fire, len(handles))))
        elif kind == "batch":
            first = len(handles)
            handles.extend([None] * len(step[1]))
            calendar.schedule_batch(
                [(calendar.now + delay, partial(self.fire, first + i))
                 for i, delay in enumerate(step[1])])
        elif kind == "cancel" and handles:
            handle = handles[step[1] % len(handles)]
            if handle is not None:
                handle.cancel()

    def fire(self, event_id: int) -> None:
        self.log.append((event_id, self.calendar.now))
        self.apply(self.actions[event_id % len(self.actions)])

    def observe(self) -> Tuple:
        return (list(self.log), self.calendar.now,
                self.calendar.events_executed)


DELAYS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.5])
SCHEDULING = st.one_of(
    st.tuples(st.just("at"), DELAYS),
    st.tuples(st.just("after"), DELAYS),
    st.tuples(st.just("batch"), st.lists(DELAYS, max_size=4)))
CANCEL = st.tuples(st.just("cancel"), st.integers(0, 200))
ACTION = st.one_of(st.just(("none",)), SCHEDULING, CANCEL)
RUN = st.one_of(
    st.tuples(st.just("run_until"), st.sampled_from([0.0, 0.3, 1.0, 4.0])),
    st.tuples(st.just("run_max"), st.integers(0, 6)))


class TestAgainstAReference:
    """Any interleaving of scheduling, cancelling (from outside and from
    inside callbacks, of fired, pending and cancelled events) and partial
    runs executes exactly what a linear-scan calendar executes."""

    @pytest.mark.parametrize("compact_min", [engine_module.COMPACT_MIN, 0])
    @settings(max_examples=150, deadline=None)
    @given(steps=st.lists(st.one_of(SCHEDULING, CANCEL, RUN), max_size=60),
           actions=st.lists(ACTION, min_size=1, max_size=12))
    def test_engine_matches_the_list_scan_calendar(self, compact_min,
                                                   steps, actions):
        engine, reference = Script(Engine(), actions), Script(
            ListCalendar(), actions)
        with mock.patch.object(engine_module, "COMPACT_MIN", compact_min):
            for step in steps + [("drain",)]:
                for script in (engine, reference):
                    calendar = script.calendar
                    # actions that reschedule themselves at delay 0 never
                    # leave the instant: a horizon alone can loop forever
                    if step[0] == "run_until":
                        calendar.run(until=calendar.now + step[1],
                                     max_events=500)
                    elif step[0] == "run_max":
                        calendar.run(max_events=step[1])
                    elif step[0] == "drain":
                        calendar.run(max_events=500)
                    else:
                        script.apply(step)
                assert engine.observe() == reference.observe()
