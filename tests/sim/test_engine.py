"""Tests for the discrete-event engine."""

from __future__ import annotations

import pytest

from repro.common.errors import SimulationError
from repro.sim.engine import PeriodicTask


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
