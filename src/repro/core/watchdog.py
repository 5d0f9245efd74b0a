"""Harness liveness watchdog: detect a chain that stopped committing.

A real DIABLO run against an overloaded chain does not fail cleanly — the
chain just stops answering, and the harness sits in its polling loop until
a human kills it. The :class:`LivenessWatchdog` gives the simulated harness
the missing guard rail: it watches commit progress on the discrete-event
clock and flags a run whose chain has pending demand but has not committed
anything for a configurable window (Solana after the validators OOM-crash,
Diem/Quorum once consensus stalls under memory pressure, §6.3).

The watchdog only *observes*; the Primary decides what to do with a
detected stall (stop draining early, mark the run ``failed``).
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.common.errors import ConfigurationError
from repro.sim.engine import Engine, PeriodicTask

DEFAULT_WINDOW = 30.0
DEFAULT_CHECK_INTERVAL = 5.0


class LivenessWatchdog:
    """Flags no-commit-progress windows for one chain under load.

    A stall is declared when, for longer than *window* simulated seconds,
    the chain had *demand* (a non-empty pool, or client arrivals within the
    window) but committed nothing. Idle gaps with no demand never count —
    a chain nobody submits to is quiet, not dead.
    """

    def __init__(self, engine: Engine, network: Any,
                 window: float = DEFAULT_WINDOW,
                 check_interval: float = DEFAULT_CHECK_INTERVAL) -> None:
        if window <= 0:
            raise ConfigurationError(f"window must be positive: {window}")
        if check_interval <= 0 or check_interval > window:
            raise ConfigurationError(
                f"need 0 < check_interval <= window,"
                f" got {check_interval}/{window}")
        self.engine = engine
        self.network = network
        self.window = window
        self._last_progress = engine.now
        self._stalled = False
        self.events: List[Dict[str, Any]] = []
        network.on_commit(self._on_commit)
        self._task = PeriodicTask(engine, check_interval, self._check,
                                  label="liveness-watchdog")

    # -- signals ---------------------------------------------------------------

    def _on_commit(self, txs: List[Any]) -> None:
        # one call per final block: only the instant matters here
        self._last_progress = self.engine.now
        if self._stalled:
            self._stalled = False
            self.events.append({
                "at": round(self.engine.now, 3),
                "kind": "progress_resumed"})

    def _demand(self, now: float) -> bool:
        if len(self.network.mempool) > 0:
            return True
        last_arrival = getattr(self.network, "last_arrival_at", None)
        return last_arrival is not None and now - last_arrival <= self.window

    def _check(self) -> None:
        now = self.engine.now
        if not self._demand(now):
            # no pending work: quiet is not a stall
            self._last_progress = now
            return
        if self._stalled:
            return
        if now - self._last_progress > self.window:
            self._stalled = True
            self.events.append({
                "at": round(now, 3),
                "kind": "stall_detected",
                "stalled_since": round(self._last_progress, 3)})

    # -- results ---------------------------------------------------------------

    @property
    def stalled(self) -> bool:
        """True while a stall is in effect (no commit since detection)."""
        return self._stalled

    def stop(self) -> None:
        self._task.stop()

    def finalize(self) -> str:
        """Run status verdict: ``failed`` / ``degraded`` / ``ok``.

        A run that *ends* stalled failed; one that stalled but recovered is
        degraded; one that never stalled is ok.
        """
        if self._stalled:
            return "failed"
        if self.events:
            return "degraded"
        return "ok"
