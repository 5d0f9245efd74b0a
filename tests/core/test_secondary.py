"""Focused tests for the Secondary load generator."""

from __future__ import annotations

import pytest

from repro.blockchains.base import ExperimentScale
from repro.blockchains.registry import build_network
from repro.core.interface import Client, SimConnector
from repro.core.secondary import Secondary
from repro.core.spec import (
    AccountSample,
    Behavior,
    LoadSchedule,
    TransferSpec,
)
from repro.sim.engine import Engine


def sent_pairs(secondary):
    """The Secondary's per-tick log flattened to ``(tx, client name)``."""
    return [(tx, client.name) for txs, clients in secondary.sent
            for tx, client in zip(txs, clients)]


@pytest.fixture
def setup():
    engine = Engine()
    net = build_network("quorum", "testnet", engine,
                        scale=ExperimentScale(1.0), seed=1)
    net.create_accounts(20)
    connector = SimConnector(net)
    client = connector.create_client("c0", "ohio",
                                     [net.endpoints[0].name])
    secondary = Secondary("sec-0", "ohio", engine, connector,
                          ExperimentScale(1.0))
    return engine, net, connector, client, secondary


class TestEmission:
    def test_constant_rate_emits_expected_count(self, setup):
        engine, net, connector, client, secondary = setup
        behavior = Behavior(TransferSpec(AccountSample(20)),
                            LoadSchedule.constant(50, 10))
        secondary.assign([client], behavior)
        secondary.start()
        engine.run(until=60)
        assert len(sent_pairs(secondary)) == pytest.approx(500, abs=5)

    def test_rate_change_mid_schedule(self, setup):
        engine, net, connector, client, secondary = setup
        load = LoadSchedule(((0.0, 100.0), (5.0, 10.0), (10.0, 0.0)))
        secondary.assign([client], Behavior(TransferSpec(AccountSample(20)),
                                            load))
        secondary.start()
        engine.run(until=60)
        assert len(sent_pairs(secondary)) == pytest.approx(550, abs=10)

    def test_client_attribution_round_robins(self, setup):
        engine, net, connector, client, secondary = setup
        other = connector.create_client("c1", "ohio",
                                        [net.endpoints[0].name])
        behavior = Behavior(TransferSpec(AccountSample(20)),
                            LoadSchedule.constant(20, 5))
        secondary.assign([client, other], behavior)
        secondary.start()
        engine.run(until=30)
        names = {name for _, name in sent_pairs(secondary)}
        assert names == {"c0", "c1"}

    def test_multiple_behaviors_overlap(self, setup):
        engine, net, connector, client, secondary = setup
        fast = Behavior(TransferSpec(AccountSample(20)),
                        LoadSchedule.constant(30, 5))
        slow = Behavior(TransferSpec(AccountSample(20)),
                        LoadSchedule.constant(10, 5))
        secondary.assign([client], fast)
        secondary.assign([client], slow)
        secondary.start()
        engine.run(until=30)
        assert len(sent_pairs(secondary)) == pytest.approx(200, abs=8)

    def test_submission_timestamps_recorded(self, setup):
        engine, net, connector, client, secondary = setup
        behavior = Behavior(TransferSpec(AccountSample(20)),
                            LoadSchedule.constant(10, 3))
        secondary.assign([client], behavior)
        secondary.start()
        engine.run(until=30)
        for tx, _ in sent_pairs(secondary):
            assert tx.submitted_at is not None
            assert 0 <= tx.submitted_at <= 3.1

    def test_fractional_rates_accumulate(self, setup):
        engine, net, connector, client, secondary = setup
        # 0.5 TPS for 10 s -> 5 transactions despite sub-tick rates
        behavior = Behavior(TransferSpec(AccountSample(20)),
                            LoadSchedule.constant(0.5, 10))
        secondary.assign([client], behavior)
        secondary.start()
        engine.run(until=60)
        assert len(sent_pairs(secondary)) == pytest.approx(5, abs=1)

    def test_rejections_counted(self, setup):
        engine, net, connector, client, secondary = setup
        # shrink the pool so the burst overflows it
        net.mempool.policy = type(net.mempool.policy)(capacity=10)
        behavior = Behavior(TransferSpec(AccountSample(20)),
                            LoadSchedule.constant(1000, 1))
        secondary.assign([client], behavior)
        secondary.start()
        engine.run(until=5)
        assert secondary.rejected > 0

    def test_empty_assignment_is_ignored(self, setup):
        engine, net, connector, client, secondary = setup
        secondary.assign([], Behavior(TransferSpec(AccountSample(20)),
                                      LoadSchedule.constant(10, 5)))
        assert secondary.assignments == []
