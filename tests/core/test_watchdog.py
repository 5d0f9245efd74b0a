"""Tests for the harness liveness watchdog."""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigurationError
from repro.core.watchdog import LivenessWatchdog
from repro.sim.engine import Engine


class StubNetwork:
    """Minimal network surface the watchdog observes."""

    def __init__(self):
        self._listeners = []
        self._pending = 0
        self.last_arrival_at = None

    def on_commit(self, listener):
        self._listeners.append(listener)

    def off_commit(self, listener):
        self._listeners.remove(listener)

    def __len__(self):
        return self._pending

    @property
    def mempool(self):
        return self

    def commit(self):
        # like BlockchainNetwork: one call per final block, with a list
        for listener in self._listeners:
            listener([object()])

    def arrive(self, at, pending=1):
        self.last_arrival_at = at
        self._pending = pending


@pytest.fixture
def net():
    return StubNetwork()


class TestConfiguration:
    def test_bad_window_rejected(self, engine, net):
        with pytest.raises(ConfigurationError):
            LivenessWatchdog(engine, net, window=0.0)
        with pytest.raises(ConfigurationError):
            LivenessWatchdog(engine, net, window=10.0, check_interval=20.0)


class TestStallDetection:
    def test_idle_chain_never_stalls(self, engine, net):
        dog = LivenessWatchdog(engine, net, window=10.0)
        engine.run(until=500.0)
        assert not dog.stalled
        assert dog.events == []
        assert dog.finalize() == "ok"

    def test_demand_without_commits_stalls(self, engine, net):
        dog = LivenessWatchdog(engine, net, window=10.0, check_interval=1.0)
        engine.schedule_at(1.0, lambda: net.arrive(1.0, pending=5))
        engine.run(until=30.0)
        assert dog.stalled
        assert dog.events[0]["kind"] == "stall_detected"
        assert dog.events[0]["at"] <= 13.0
        assert dog.finalize() == "failed"

    def test_commits_keep_the_watchdog_quiet(self, engine, net):
        dog = LivenessWatchdog(engine, net, window=10.0, check_interval=1.0)
        net.arrive(0.0, pending=5)
        for t in range(0, 60, 5):
            engine.schedule_at(float(t), net.commit)
        engine.run(until=60.0)
        assert not dog.stalled
        assert dog.finalize() == "ok"

    def test_recovery_is_degraded_not_failed(self, engine, net):
        dog = LivenessWatchdog(engine, net, window=10.0, check_interval=1.0)
        net.arrive(0.0, pending=5)

        def commit_and_drain():
            net.commit()
            net._pending = 0   # the backlog landed; demand is gone

        engine.schedule_at(40.0, commit_and_drain)
        engine.run(until=60.0)
        kinds = [e["kind"] for e in dog.events]
        assert kinds == ["stall_detected", "progress_resumed"]
        assert not dog.stalled
        assert dog.finalize() == "degraded"

    def test_stall_reported_once_until_resumed(self, engine, net):
        dog = LivenessWatchdog(engine, net, window=5.0, check_interval=1.0)
        net.arrive(0.0, pending=5)
        engine.run(until=100.0)
        stalls = [e for e in dog.events if e["kind"] == "stall_detected"]
        assert len(stalls) == 1

    def test_stop_halts_checks(self, engine, net):
        dog = LivenessWatchdog(engine, net, window=5.0, check_interval=1.0)
        dog.stop()
        net.arrive(0.0, pending=5)
        engine.run(until=60.0)
        assert dog.events == []

    def test_arrivals_within_window_count_as_demand(self, engine, net):
        # an empty pool with fresh arrivals (all being rejected) is demand:
        # the Solana-after-crash shape where nothing is ever admitted
        dog = LivenessWatchdog(engine, net, window=10.0, check_interval=1.0)

        def rejected_arrival():
            net.last_arrival_at = engine.now
            net._pending = 0

        for t in range(0, 40):
            engine.schedule_at(float(t), rejected_arrival)
        engine.run(until=40.0)
        assert dog.stalled
