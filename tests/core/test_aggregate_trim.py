"""The aggregate lane builds only what the node will admit.

* a trimmed population run equals the same run forced to build
  everything: the admitted transactions field for field, the result
  bytes, the chain's statistics;
* every condition under which somebody would look at a rejected
  transaction, or the pool's answer depends on the transaction, makes
  the lane build the whole count;
* a tick the node turns away whole encodes nothing and still counts.
"""

from __future__ import annotations

from dataclasses import fields, replace

import pytest

from repro.blockchains.base import BlockchainNetwork, ExperimentScale
from repro.blockchains.registry import chain_params
from repro.chain.mempool import MempoolPolicy
from repro.chain.transaction import Transaction, reset_tx_counter
from repro.core.interface import SimConnector
from repro.core.primary import Primary
from repro.core.secondary import Secondary
from repro.core.spec import (
    AccountSample,
    TransferSpec,
    simple_population_spec,
)
from repro.econ.fees import FeeSpec
from repro.obs import LifecycleTracer
from repro.sim.deployment import TESTNET
from repro.sim.engine import Engine

TRANSFER = TransferSpec(AccountSample(50))


def population_run(chain: str, build_everything: bool):
    spec = simple_population_spec(
        users=20_000, interaction=TRANSFER, rate_per_user=0.2,
        duration=5, cohort=2_000)
    primary = Primary(chain, "testnet", scale=0.1, seed=7)
    if build_everything:
        # a tracer sees every rejected transaction, so the lane may not
        # skip any; attached to the network only, it leaves the result
        # document without a trace section
        primary.network.attach_tracer(LifecycleTracer(chain=chain))
    result = primary.run(spec, workload_name="trim", drain=30)
    return primary, result


def tx_fields(tx: Transaction):
    # the two runs hold two signer objects per account: compare what each
    # says about the transaction, not which object says it
    return tuple(tx.signature if f.name == "signer" else getattr(tx, f.name)
                 for f in fields(Transaction))


@pytest.mark.parametrize("chain", ["algorand", "solana"])
def test_trimmed_run_equals_the_run_that_builds_everything(
        chain, aggregate_lanes):
    trimmed, trimmed_result = population_run(chain, build_everything=False)
    full, full_result = population_run(chain, build_everything=True)
    assert trimmed.network.dropped_unbuilt > 0, \
        "the scenario must overflow the pool"
    assert full.network.dropped_unbuilt == 0
    # aggregation took each lane, so a finished Secondary holds none
    assert all(secondary.aggregate_sent == []
               for primary in (trimmed, full)
               for secondary in primary.secondaries)

    def admitted(primary):
        return [tx_fields(tx) for tx in aggregate_lanes[primary]
                if not tx.aborted]

    assert admitted(trimmed) == admitted(full)
    assert len(admitted(trimmed)) > 0
    assert [tx_fields(tx) for tx in trimmed.network.committed] == \
        [tx_fields(tx) for tx in full.network.committed]
    assert trimmed_result.to_json() == full_result.to_json()
    assert trimmed.network.stats() == full.network.stats()


# -- one lane on a small pool --------------------------------------------------


class FixedArrivals:
    """An arrival process of *count* users per tick for *ticks* ticks."""

    def __init__(self, count: int, ticks: int, tick: float) -> None:
        self.count = count
        self.duration = ticks * tick

    def count_at(self, t: float) -> int:
        return self.count


class RecordingConnector(SimConnector):
    def __init__(self, network: BlockchainNetwork) -> None:
        super().__init__(network)
        self.encoded = []       # count of each encode_batch call

    def encode_batch(self, interaction, resource, t, count):
        self.encoded.append(count)
        return super().encode_batch(interaction, resource, t, count)


CAPACITY = 5
COUNT = 8


def small_pool_lane(ticks: int = 3, **overrides):
    """An algorand node with a 5-slot capacity-only pool and a lane
    offering 8 per tick; *overrides* replace chain parameters."""
    reset_tx_counter()
    overrides.setdefault("mempool_policy", MempoolPolicy(capacity=CAPACITY))
    params = replace(chain_params("algorand", TESTNET), **overrides)
    engine = Engine()
    network = BlockchainNetwork(params, TESTNET, engine,
                                scale=ExperimentScale(1.0), seed=1)
    network.create_accounts(20)
    connector = RecordingConnector(network)
    secondary = Secondary("sec-0", "ohio", engine, connector,
                          ExperimentScale(1.0))
    secondary.assign_aggregate(FixedArrivals(COUNT, ticks, secondary.tick),
                               TransferSpec(AccountSample(20)))
    return engine, network, connector, secondary


def run_lane(engine, secondary) -> None:
    secondary.start()
    engine.run(until=0.25)      # three ticks


def test_capacity_only_pool_is_trimmed():
    engine, network, connector, secondary = small_pool_lane()
    run_lane(engine, secondary)
    # the empty pool takes five of the first tick; what later ticks get
    # depends on the blocks sealed in between
    assert connector.encoded[0] == CAPACITY and len(connector.encoded) == 3
    assert all(not tx.aborted for tx in secondary.aggregate_sent)
    assert len(secondary.aggregate_sent) == sum(connector.encoded)
    assert network.dropped_unbuilt == 3 * COUNT - sum(connector.encoded)
    assert network.dropped_unbuilt >= COUNT


FALLBACKS = {
    "quota": dict(mempool_policy=MempoolPolicy(
        capacity=CAPACITY, per_sender_quota=3)),
    "quota and evict_oldest": dict(mempool_policy=MempoolPolicy(
        capacity=CAPACITY, per_sender_quota=3, evict_oldest=True)),
    "evict_oldest": dict(mempool_policy=MempoolPolicy(
        capacity=CAPACITY, evict_oldest=True)),
    "fee market": lambda network: network.attach_fees(FeeSpec()),
    "tracer": lambda network: network.attach_tracer(
        LifecycleTracer(chain="algorand")),
    "drop listener": lambda network: network.on_drop(lambda tx: None),
}


@pytest.mark.parametrize("condition", FALLBACKS)
def test_lane_builds_the_whole_count_when(condition):
    setup = FALLBACKS[condition]
    if callable(setup):
        engine, network, connector, secondary = small_pool_lane()
        setup(network)
    else:
        engine, network, connector, secondary = small_pool_lane(**setup)
    assert connector.admission_room(TransferSpec(AccountSample(20)),
                                    COUNT) is None
    run_lane(engine, secondary)
    assert connector.encoded == [COUNT] * 3
    assert network.dropped_unbuilt == 0
    assert len(secondary.aggregate_sent) == 3 * COUNT


@pytest.mark.parametrize("shedding", [False, True])
def test_a_tick_turned_away_whole_still_counts(shedding):
    engine, network, connector, secondary = small_pool_lane(ticks=1)
    interaction = TransferSpec(AccountSample(20))
    # another client fills the pool first
    filler = connector.encode_batch(interaction, None, 0.0, CAPACITY)
    assert network.submit_batch(filler) == CAPACITY
    connector.encoded.clear()
    if shedding:
        network.admission.set_shedding(True, CAPACITY)
    sequences = [account.sequence for account in network.accounts]
    assert connector.admission_room(interaction, COUNT) == 0
    secondary.start()
    engine.run(until=0.05)      # the one tick, before the first block

    assert connector.encoded == [0]
    assert secondary.aggregate_sent == []
    assert network.dropped_unbuilt == COUNT
    # the arrival, the drops and their reasons are recorded
    assert network._arrivals[-1] == (0.0, COUNT)
    stats = network.stats()
    assert stats["dropped"] == COUNT and network.dropped == []
    if shedding:
        assert network.drop_reasons == {"shed_load": COUNT}
        assert stats["admission_shed_rejections"] == COUNT
        assert network.admission_processed == CAPACITY
        assert "drop_capacity" not in network.mempool.stats()
    else:
        assert network.drop_reasons == {"MempoolFullError": COUNT}
        assert stats["mempool_drop_capacity"] == COUNT
        assert network.admission_processed == CAPACITY + COUNT
    # the unbuilt consumed their uids, ring positions and sequences
    after = connector.encode(interaction, None, 1.0)
    assert after.uid == CAPACITY + COUNT
    ring = list(network.accounts)
    assert after.sender == ring[2 * (CAPACITY + COUNT) % len(ring)].address
    assert sum(account.sequence for account in network.accounts) == \
        sum(sequences) + COUNT + 1
