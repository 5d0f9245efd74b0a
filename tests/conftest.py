"""Shared fixtures for the test suite."""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

import pytest

from repro.blockchains.base import ExperimentScale
from repro.sim.engine import Engine
from repro.sim.network import Endpoint, Network


@pytest.fixture
def engine() -> Engine:
    return Engine()


@pytest.fixture
def network(engine: Engine) -> Network:
    return Network(engine)


@pytest.fixture
def ohio() -> Endpoint:
    return Endpoint("node-ohio", "ohio")


@pytest.fixture
def tokyo() -> Endpoint:
    return Endpoint("node-tokyo", "tokyo")


@pytest.fixture
def small_scale() -> ExperimentScale:
    """A small scale factor for fast end-to-end tests."""
    return ExperimentScale(0.05)


@pytest.fixture
def fault_window() -> Callable[[Any], Optional[Tuple[float, float]]]:
    """The window a run's result reports for a fault or byzantine
    schedule: ``BenchmarkResult.fault_window``, the one definition, over
    the schedule's event summaries."""
    from repro.core.results import BenchmarkResult

    def window(schedule: Any) -> Optional[Tuple[float, float]]:
        return BenchmarkResult(
            chain="quorum", configuration="testnet", workload_name="w",
            duration=90.0, scale=1.0,
            fault_events=schedule.summaries()).fault_window()
    return window


@pytest.fixture
def encoded_batches(monkeypatch) -> List[list]:
    """Every batch ``SimConnector.encode_batch`` returns, in call order.

    A Secondary's ``sent`` log is taken when the Primary aggregates, so a
    test that reads what was encoded after a run reads it here; the
    batches are the very lists the lanes triggered, on either lane."""
    from repro.core.interface import SimConnector

    batches: List[list] = []
    encode_batch = SimConnector.encode_batch

    def kept(self, *args, **kwargs):
        batch = encode_batch(self, *args, **kwargs)
        batches.append(batch)
        return batch

    monkeypatch.setattr(SimConnector, "encode_batch", kept)
    return batches


@pytest.fixture
def aggregate_lanes(monkeypatch) -> Dict[Any, list]:
    """Each Primary's aggregate-lane transactions, keyed by the Primary.

    Aggregation takes a Secondary's ``aggregate_sent`` as it takes its
    ``sent`` log, so a test that reads the lane after a run reads it
    here: the transactions the lanes built, as aggregation found them."""
    from repro.core.primary import Primary

    lanes: Dict[Any, list] = {}
    aggregate = Primary._aggregate

    def kept(self, *args, **kwargs):
        lanes[self] = [tx for secondary in self.secondaries
                       for tx in secondary.aggregate_sent]
        return aggregate(self, *args, **kwargs)

    monkeypatch.setattr(Primary, "_aggregate", kept)
    return lanes
