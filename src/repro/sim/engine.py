"""Discrete-event simulation engine.

The engine is a classic event-calendar simulator: callbacks are scheduled at
virtual timestamps and executed in timestamp order. Everything in the
reproduction — blockchain nodes, consensus message exchanges, DIABLO
secondaries injecting load — runs on top of one :class:`Engine` per
experiment, so an entire geo-distributed 200-node benchmark executes
deterministically in a single OS process.

The calendar is the hottest data structure in the repo — every message
delivery, block, client emission and timer passes through it — so its
representation is chosen from measured evidence (docs/BENCHMARKS.md): an
entry is the bare tuple ``(time, sequence, callback, label)``, where the
sequence is unique and grows with every insertion. ``(time, sequence)``
is thus a total order that C-level tuple comparison settles without
reaching the callback, and same-time events run in insertion order.
A cancel records the sequence in the engine's cancelled set: the entry is
dropped, uncounted and without moving the clock, when it reaches the
head, and once cancelled entries outnumber both :data:`COMPACT_MIN` and
half the heap (a pacemaker re-arms its timer every view) the heap is
rebuilt in place from its live entries. The next event is always the
least live ``(time, sequence)``, so neither step can reorder anything.

A run keeps objects alive per submitted transaction, which CPython's
cyclic collector would re-walk over and over while finding nothing, so
the run's entry points pause it (:func:`collector_paused`). The pause
ends without a collection, as there is nothing for one to find: a run
builds no reference cycle, so reference counting frees what it drops as
it goes, and a finished run owns none either, so it frees the rest once
the caller lets the run go.
"""

from __future__ import annotations

import gc
import heapq
import math
import sys
import weakref
from contextlib import contextmanager
from typing import (Any, Callable, Iterable, Iterator, List, Optional, Set,
                    Tuple)

from repro.common.errors import SimulationError

EventCallback = Callable[[], None]


@contextmanager
def collector_paused() -> Iterator[None]:
    """Pause CPython's cyclic collector; restore the caller's state after.

    Re-entrant: a nested use finds the collector already off and leaves it
    off, so only the outermost use turns it back on, and only if it was on
    when that use began. The state is restored on an exception too.
    Turning it back on, it moves what the paused stretch left alive into
    the oldest generation without walking it (``gc.freeze()`` then
    ``gc.unfreeze()``); left to the thresholds, the same objects would be
    walked by a young collection and soon after by the middle one. No
    walk is needed to free anything: a run builds no reference cycle, so
    reference counting has already freed whatever it dropped, and frees
    what is still alive once the caller drops the run, which owns no
    cycle either. A caller that froze objects of its own keeps them
    frozen: then the survivors stay where they are. Usable as a
    decorator.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
            if not gc.get_freeze_count():
                gc.freeze()
                gc.unfreeze()


#: cancelled entries the heap may hold before compaction is considered
COMPACT_MIN = 64


class EventHandle:
    """Handle to a scheduled event, allowing cancellation.

    It holds its engine weakly: a component keeps the handle of a timer
    whose callback reaches back into that component, and the engine's
    calendar holds the callback, so a strong reference would be a cycle
    for as long as the timer is pending. Once the engine is gone there
    is nothing left to cancel.
    """

    __slots__ = ("_engine", "_sequence", "time", "cancelled")

    def __init__(self, engine: "weakref.ref[Engine]", sequence: int,
                 time: float) -> None:
        self._engine = engine
        self._sequence = sequence
        self.time = time
        self.cancelled = False

    def cancel(self) -> None:
        """Cancel the event; a cancelled event's callback never runs."""
        self.cancelled = True
        engine = self._engine()
        if engine is not None:
            engine._cancel(self._sequence)


class Engine:
    """Deterministic discrete-event scheduler with a virtual clock."""

    def __init__(self) -> None:
        # heap of (time, sequence, callback, label)
        self._queue: List[Tuple[float, int, EventCallback, str]] = []
        # cancelled sequences (one that already ran goes at compaction)
        self._cancelled: Set[int] = set()
        self._now = 0.0
        self._sequence = 0
        self._running = False
        self._events_executed = 0
        #: optional :class:`repro.obs.profiler.EngineProfiler`, read when
        #: :meth:`run` starts; every event callback then runs through it
        #: (wall-clock attribution per event label — observation only)
        self.profiler: Optional[Any] = None
        # what each EventHandle holds, made once
        self._ref = weakref.ref(self)

    # -- clock ---------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Number of callbacks executed so far (for tests/diagnostics)."""
        return self._events_executed

    # -- scheduling ------------------------------------------------------------

    def schedule_at(self, time: float, callback: EventCallback,
                    label: str = "") -> EventHandle:
        """Schedule *callback* to run at absolute virtual time *time*."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at {time:.6f} before now={self._now:.6f}"
                f" (label={label!r})")
        sequence = self._sequence
        heapq.heappush(self._queue, (time, sequence, callback, label))
        self._sequence = sequence + 1
        return EventHandle(self._ref, sequence, time)

    def schedule_after(self, delay: float, callback: EventCallback,
                       label: str = "") -> EventHandle:
        """Schedule *callback* to run *delay* seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay} (label={label!r})")
        time = self._now + delay
        sequence = self._sequence
        heapq.heappush(self._queue, (time, sequence, callback, label))
        self._sequence = sequence + 1
        return EventHandle(self._ref, sequence, time)

    def schedule_batch(self, items: Iterable[Tuple[float, EventCallback]],
                       label: str = "") -> None:
        """Schedule ``(time, callback)`` pairs, all under one *label*.

        Identical to calling :meth:`schedule_at` per pair in iteration
        order (sequence numbers are assigned in that order, so same-time
        ties break exactly the same way, and a time before ``now`` raises
        with the pairs ahead of it already on the calendar), except that
        no :class:`EventHandle` is made: batched events cannot be
        cancelled, which is what a message already on the wire is.
        """
        queue = self._queue
        now = self._now
        sequence = self._sequence
        heappush = heapq.heappush
        try:
            for time, callback in items:
                if time < now:
                    raise SimulationError(
                        f"cannot schedule event at {time:.6f} before"
                        f" now={now:.6f} (label={label!r})")
                heappush(queue, (time, sequence, callback, label))
                sequence += 1
        finally:
            self._sequence = sequence

    def _cancel(self, sequence: int) -> None:
        """Mark entry *sequence* dead; compact once the dead dominate."""
        cancelled, queue = self._cancelled, self._queue
        cancelled.add(sequence)
        if len(cancelled) > COMPACT_MIN and 2 * len(cancelled) > len(queue):
            # in place: a running loop holds this very list
            queue[:] = [entry for entry in queue if entry[1] not in cancelled]
            heapq.heapify(queue)
            cancelled.clear()

    def clear(self) -> None:
        """Drop every pending event, cancelled or not, for good.

        For a finished run, which is never resumed: its pending callbacks
        hold the components that hold this engine, a cycle that only the
        cyclic collector would otherwise free.
        """
        self._queue.clear()
        self._cancelled.clear()

    # -- execution ---------------------------------------------------------------

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        """Run until the calendar drains, *until* is reached, or *max_events*.

        At most *max_events* callbacks run in this call, none of them after
        *until*. The clock then moves to exactly *until*, even if the last
        event fired earlier, so later scheduling is relative to the
        horizon, but only when nothing live is left on the calendar at or
        before *until*: a run cut short by *max_events* leaves the clock at
        its last event, so the next :meth:`run` resumes at the next entry
        and time never goes backwards. :attr:`events_executed` counts an
        event before its callback runs, so the callback sees itself
        counted, and one that raises stays counted; the engine is then
        idle again and can be re-run.
        """
        if self._running:
            raise SimulationError("engine is not reentrant")
        self._running = True
        queue = self._queue
        cancelled = self._cancelled
        profiler = self.profiler
        heappop = heapq.heappop
        # the two stop tests compare against loop constants, never None
        # (an int limit keeps the count test an int comparison)
        horizon = math.inf if until is None else until
        limit = (sys.maxsize if max_events is None
                 else self._events_executed + max_events)
        try:
            while queue:
                time, sequence, callback, label = queue[0]
                if sequence in cancelled:
                    heappop(queue)
                    cancelled.discard(sequence)
                    continue
                if time > horizon:
                    break
                executed = self._events_executed
                if executed >= limit:
                    # a live entry is due by the horizon: the clock stays
                    return
                heappop(queue)
                self._now = time
                self._events_executed = executed + 1
                if profiler is not None:
                    profiler.record(label, callback)
                else:
                    callback()
            if until is not None and self._now < until:
                self._now = until
        finally:
            self._running = False


class PeriodicTask:
    """Helper running a callback at a fixed period until stopped.

    The callback receives no arguments; use closures to capture state. The
    task tolerates the callback raising StopIteration to stop itself.
    """

    def __init__(self, engine: Engine, period: float,
                 callback: EventCallback, start_at: Optional[float] = None,
                 label: str = "") -> None:
        if period <= 0:
            raise SimulationError(f"period must be positive, got {period}")
        self._engine = engine
        self._period = period
        self._callback = callback
        self._label = label
        self._stopped = False
        first = engine.now if start_at is None else start_at
        self._handle = engine.schedule_at(first, self._tick, label=label)

    @property
    def stopped(self) -> bool:
        return self._stopped

    def stop(self) -> None:
        """Stop for good, and let go of the callback: an owner that holds
        its task and passed its own method is then no longer in a cycle."""
        self._stopped = True
        self._handle.cancel()
        self._callback = None

    def _tick(self) -> None:
        if self._stopped:
            return
        try:
            self._callback()
        except StopIteration:
            self._stopped = True
            return
        if not self._stopped:
            self._handle = self._engine.schedule_after(
                self._period, self._tick, label=self._label)
