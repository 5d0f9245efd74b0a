"""Discrete-event simulation engine.

The engine is a classic event-calendar simulator: callbacks are scheduled at
virtual timestamps and executed in timestamp order. Everything in the
reproduction — blockchain nodes, consensus message exchanges, DIABLO
secondaries injecting load — runs on top of one :class:`Engine` per
experiment, so an entire geo-distributed 200-node benchmark executes
deterministically in a single OS process.

Events scheduled at the same virtual time are ordered by insertion order,
which keeps runs reproducible regardless of dict/set iteration details.

The calendar is the hottest data structure in the repo — every message
delivery, block, client emission and timer passes through it — so its
representation is chosen from measured evidence (round 1 in
docs/BENCHMARKS.md): the heap holds bare ``(time, sequence, event)``
tuples (C-level comparisons instead of dataclass ``__lt__``), event
records carry ``__slots__``, and :meth:`Engine.schedule_batch` inserts a
fan-out (one broadcast's deliveries) without a handle per entry.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterable, List, Optional, Tuple

from repro.common.errors import SimulationError

EventCallback = Callable[[], None]


class _ScheduledEvent:
    """One calendar entry. Heap ordering lives in the queue tuple."""

    __slots__ = ("time", "callback", "cancelled", "label")

    def __init__(self, time: float, callback: EventCallback,
                 label: str = "") -> None:
        self.time = time
        self.callback = callback
        self.cancelled = False
        self.label = label


class EventHandle:
    """Handle to a scheduled event, allowing cancellation."""

    __slots__ = ("_event",)

    def __init__(self, event: _ScheduledEvent) -> None:
        self._event = event

    @property
    def time(self) -> float:
        return self._event.time

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled

    def cancel(self) -> None:
        """Cancel the event; a cancelled event's callback never runs."""
        self._event.cancelled = True


class Engine:
    """Deterministic discrete-event scheduler with a virtual clock."""

    def __init__(self) -> None:
        # heap of (time, sequence, event) — bare tuples compare at C speed,
        # and the monotone sequence keeps same-time ordering insertion-stable
        self._queue: List[Tuple[float, int, _ScheduledEvent]] = []
        self._now = 0.0
        self._sequence = 0
        self._running = False
        self._events_executed = 0
        #: optional :class:`repro.obs.profiler.EngineProfiler`; when set,
        #: every event callback runs through it (wall-clock attribution
        #: per event label — observation only, event order is unchanged)
        self.profiler: Optional[Any] = None

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
        event = _ScheduledEvent(time, callback, label)
        heapq.heappush(self._queue, (time, self._sequence, event))
        self._sequence += 1
        return EventHandle(event)

    def schedule_after(self, delay: float, callback: EventCallback,
                       label: str = "") -> EventHandle:
        """Schedule *callback* to run *delay* seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay} (label={label!r})")
        return self.schedule_at(self._now + delay, callback, label)

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
                heappush(queue, (time, sequence,
                                 _ScheduledEvent(time, callback, label)))
                sequence += 1
        finally:
            self._sequence = sequence

    # -- execution ---------------------------------------------------------------

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        """Run until the calendar drains, *until* is reached, or *max_events*.

        When *until* is given, the clock is advanced to exactly *until* even
        if the last event fires earlier, so subsequent scheduling is relative
        to the requested horizon.
        """
        if self._running:
            raise SimulationError("engine is not reentrant")
        self._running = True
        executed = 0
        queue = self._queue
        heappop = heapq.heappop
        try:
            while queue:
                head_time, _, head = queue[0]
                if head.cancelled:
                    heappop(queue)
                    continue
                if until is not None and head_time > until:
                    break
                if max_events is not None and executed >= max_events:
                    break
                heappop(queue)
                self._now = head_time
                self._events_executed += 1
                executed += 1
                if self.profiler is not None:
                    self.profiler.record(head.label, head.callback)
                else:
                    head.callback()
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
        self._handle: Optional[EventHandle] = None
        first = engine.now if start_at is None else start_at
        self._handle = engine.schedule_at(first, self._tick, label=label)

    @property
    def stopped(self) -> bool:
        return self._stopped

    def stop(self) -> None:
        self._stopped = True
        if self._handle is not None:
            self._handle.cancel()

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
