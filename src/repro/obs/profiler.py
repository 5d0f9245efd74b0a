"""Engine profiler: where does the *simulation* spend its wall-clock time?

Attached to an :class:`~repro.sim.engine.Engine` (``engine.profiler = ...``),
the profiler wraps every event callback, counting executions and
accumulating host wall-clock time per event label. Event labels are the
strings call sites pass to ``schedule_at``/``schedule_after``
(``"ethereum-block"``, ``"secondary-ohio-0-emit"``, ...); unlabeled events
fall back to the callback's qualified name so every event is attributable.

This is the *only* place in the reproduction allowed to read the wall
clock: the profiler observes host time without feeding anything back into
the simulation, so a profiled run is outcome-identical to an unprofiled
one (the event count and order do not change — only who is looking).
"""

from __future__ import annotations

import resource
import sys
import time
from typing import Callable, Dict, List, Tuple


def event_name(label: str, callback: Callable[[], None]) -> str:
    """The attribution key for one event: its label, else the callback."""
    if label:
        return label
    name = getattr(callback, "__qualname__", "")
    return name or type(callback).__name__


def peak_rss_bytes() -> int:
    """Peak resident set size of this process, normalized to bytes.

    ``getrusage`` reports ``ru_maxrss`` in platform-dependent units:
    kibibytes on Linux (``man 2 getrusage``), bytes on macOS. The
    profiler and the trace report read RSS through this helper, so the
    figures they print are always bytes.
    """
    raw = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        return int(raw)
    return int(raw) * 1024


class EngineProfiler:
    """Per-label event counts and wall-clock accumulation."""

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {}
        self.seconds: Dict[str, float] = {}

    def record(self, label: str, callback: Callable[[], None]) -> None:
        """Run *callback*, charging its wall-clock time to *label*."""
        name = event_name(label, callback)
        start = time.perf_counter()
        try:
            callback()
        finally:
            elapsed = time.perf_counter() - start
            self.counts[name] = self.counts.get(name, 0) + 1
            self.seconds[name] = self.seconds.get(name, 0.0) + elapsed

    @property
    def total_events(self) -> int:
        return sum(self.counts.values())

    @property
    def total_seconds(self) -> float:
        return sum(self.seconds.values())

    def hotspots(self, top: int = 10) -> List[Tuple[str, int, float]]:
        """(label, events, wall seconds) rows, hottest first."""
        rows = [(name, self.counts[name], self.seconds[name])
                for name in self.counts]
        rows.sort(key=lambda row: (-row[2], -row[1], row[0]))
        return rows[:max(0, top)]

    # -- aggregate views ------------------------------------------------------

    @property
    def peak_rss_bytes(self) -> int:
        """Peak RSS of the hosting process in bytes (see module helper)."""
        return peak_rss_bytes()
