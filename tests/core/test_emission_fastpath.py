"""The one emission-to-admission lane: encode_batch, the tick loop, submit.

* connector level — one ``SimConnector.encode_batch`` of *N* equals *N*
  batches of one (``encode`` is the batch of one), for transfers,
  invocations, fee markets and expiry chains: the property client
  retries and the DoS adversary rely on when they submit singly;
* the unbuilt tail — what ``trigger_aggregate`` is told the node turned
  away consumes the uids, ring positions and sequence numbers that
  encoding it would have;
* schedule level (hypothesis) — the Secondary's tick loop emits what the
  carry accumulator dictates, at the tick's timestamp, round-robin over
  its clients, for arbitrary rate profiles, tick sizes and client counts;
* the derived single forms — a connector that implements only the batch
  forms gets ``encode``, and ``BlockchainNetwork.submit``
  answers ``accepted``/``will_retry`` for each admission outcome.

Run-level bytes are pinned by tests/core/test_result_golden.py.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blockchains.base import BlockchainNetwork, ExperimentScale
from repro.blockchains.retry import RetryPolicy
from repro.blockchains.registry import build_network, chain_params
from repro.chain.mempool import MempoolPolicy
from repro.chain.transaction import reset_tx_counter, transfer
from repro.core.interface import BlockchainConnector, Client, SimConnector
from repro.core.secondary import Secondary
from repro.core.spec import (
    AccountSample,
    Behavior,
    ContractSample,
    InvokeSpec,
    LoadSchedule,
    TransferSpec,
)
from repro.econ.fees import FeeSpec
from repro.sim.deployment import TESTNET
from repro.sim.engine import Engine

SIX_CHAINS = ["algorand", "avalanche", "diem", "ethereum", "quorum",
              "solana"]


def tx_fields(tx):
    """Every semantic field of a transaction (uid included)."""
    return (tx.uid, tx.sender, tx.kind, tx.sequence, tx.amount,
            tx.recipient, tx.contract, tx.function, tx.args,
            tx.fee_per_gas, tx.tip, tx.gas_limit, tx.recent_block_hash,
            tx.signature)


def fresh_connector(chain: str, *, accounts: int = 10, fees: bool = False):
    network = build_network(chain, "testnet", Engine(), seed=11)
    network.create_accounts(accounts)
    if fees:
        network.attach_fees(FeeSpec())
    return SimConnector(network)


class TestEncodeBatchMatchesEncodeLoop:
    @pytest.mark.parametrize("chain", SIX_CHAINS)
    def test_transfers(self, chain):
        spec = TransferSpec(AccountSample(10), amount=4)
        reset_tx_counter()
        reference = fresh_connector(chain)
        expected = [tx_fields(reference.encode(spec, None, 0.5))
                    for _ in range(25)]
        reset_tx_counter()
        fast = fresh_connector(chain)
        got = [tx_fields(tx) for tx in fast.encode_batch(spec, None, 0.5, 25)]
        assert got == expected
        assert fast._account_cursor == reference._account_cursor

    def test_invocations(self):
        spec = InvokeSpec(AccountSample(10), ContractSample("exchange"),
                          "order", ("google", 2))
        reset_tx_counter()
        reference = fresh_connector("quorum")
        expected = [tx_fields(reference.encode(spec, None, 1.0))
                    for _ in range(12)]
        reset_tx_counter()
        fast = fresh_connector("quorum")
        got = [tx_fields(tx) for tx in fast.encode_batch(spec, None, 1.0, 12)]
        assert got == expected

    def test_with_fee_market(self):
        spec = TransferSpec(AccountSample(10))
        reset_tx_counter()
        reference = fresh_connector("ethereum", fees=True)
        expected = [tx_fields(reference.encode(spec, None, 0.0))
                    for _ in range(8)]
        reset_tx_counter()
        fast = fresh_connector("ethereum", fees=True)
        got = [tx_fields(tx) for tx in fast.encode_batch(spec, None, 0.0, 8)]
        assert got == expected
        assert all(fields[9] > 0 for fields in got)  # fee_per_gas priced

    def test_expiry_chain_stamps_recent_block_hash(self):
        spec = TransferSpec(AccountSample(10))
        reset_tx_counter()
        fast = fresh_connector("solana")
        txs = fast.encode_batch(spec, None, 0.0, 5)
        head = fast.network.ledger.head.block_hash
        assert all(tx.recent_block_hash == head for tx in txs)
        reset_tx_counter()
        reference = fresh_connector("solana")
        expected = [tx_fields(reference.encode(spec, None, 0.0))
                    for _ in range(5)]
        assert [tx_fields(tx) for tx in txs] == expected

    def test_empty_batch(self):
        fast = fresh_connector("ethereum")
        assert fast.encode_batch(TransferSpec(AccountSample(10)),
                                 None, 0.0, 0) == []
        assert fast._account_cursor == 0

    def test_cursor_continues_across_batches_and_singles(self):
        spec = TransferSpec(AccountSample(10))
        reset_tx_counter()
        reference = fresh_connector("ethereum")
        expected = [tx_fields(reference.encode(spec, None, 0.0))
                    for _ in range(9)]
        reset_tx_counter()
        fast = fresh_connector("ethereum")
        got = [tx_fields(tx) for tx in fast.encode_batch(spec, None, 0.0, 4)]
        got.append(tx_fields(fast.encode(spec, None, 0.0)))
        got += [tx_fields(tx) for tx in fast.encode_batch(spec, None, 0.0, 4)]
        assert got == expected


class TestUnbuiltTailConsumesWhatEncodingWould:
    """``trigger_aggregate``'s unbuilt tail against encoding and
    discarding it: the next transaction and every account's sequence
    number come out the same."""

    @staticmethod
    def next_after(spec, accounts, prefix, tail, build_tail):
        reset_tx_counter()
        connector = fresh_connector("quorum", accounts=accounts)
        connector.encode_batch(spec, None, 0.0, prefix)
        if build_tail:
            connector.encode_batch(spec, None, 0.0, tail)
        else:
            connector.trigger_aggregate([], spec, tail)
        sequences = [a.sequence for a in connector.network.accounts]
        return tx_fields(connector.encode(spec, None, 0.0)), sequences

    @given(st.integers(1, 12), st.integers(0, 9), st.integers(1, 60))
    @settings(max_examples=40, deadline=None)
    def test_transfers(self, accounts, prefix, tail):
        spec = TransferSpec(AccountSample(accounts))
        assert self.next_after(spec, accounts, prefix, tail, False) == \
            self.next_after(spec, accounts, prefix, tail, True)

    @pytest.mark.parametrize("tail", [1, 7, 10, 23])
    def test_invocations(self, tail):
        spec = InvokeSpec(AccountSample(10), ContractSample("exchange"),
                          "order", ("google", 2))
        assert self.next_after(spec, 10, 3, tail, False) == \
            self.next_after(spec, 10, 3, tail, True)

    def test_uncached_gas_estimate_is_not_answered(self):
        spec = InvokeSpec(AccountSample(10), ContractSample("exchange"),
                          "order", ("google", 2))
        connector = fresh_connector("quorum")
        assert connector.admission_room(spec, 5) is None
        connector.encode_batch(spec, None, 0.0, 1)      # probes the gas
        assert connector.admission_room(spec, 5) == 5


class StubConnector(BlockchainConnector):
    """Records the emission schedule; implements only the batch forms."""

    def __init__(self, reject_every: int = 0) -> None:
        self.encodes = []          # t per interaction, in emission order
        self.batches = []          # size of each encode_batch call
        self.triggered = []        # client name per trigger, in call order
        self.reject_every = reject_every

    def create_client(self, name, location, endpoints):
        return Client(name, location, tuple(endpoints))

    def encode_batch(self, interaction, resource, t, count):
        first = len(self.encodes)
        self.encodes += [t] * count
        self.batches.append(count)
        return list(range(first + 1, first + count + 1))

    def trigger_batch(self, clients, encoded):
        accepted = 0
        for client in clients:
            self.triggered.append(client.name)
            if not (self.reject_every
                    and len(self.triggered) % self.reject_every == 0):
                accepted += 1
        return accepted


def run_secondary(points, tick, nclients, reject_every):
    connector = StubConnector(reject_every)
    clients = [connector.create_client(f"c{i}", "ohio", ())
               for i in range(nclients)]
    engine = Engine()
    secondary = Secondary("sec-0", "ohio", engine, connector,
                          scale=ExperimentScale(1.0), tick=tick)
    secondary.assign(clients, Behavior(TransferSpec(AccountSample(1)),
                                       LoadSchedule(points)))
    secondary.start()
    engine.run()
    return connector, secondary


def due_per_tick(points, tick, nclients):
    """The schedule, stated once: ``(t, count)`` for every tick, counts
    from a carry accumulator over rate x clients x tick."""
    load = LoadSchedule(points)
    t, carry, ticks = 0.0, 0.0, []
    while t < load.duration:
        carry += load.rate_at(t) * nclients * tick
        count = int(carry)
        carry -= count
        ticks.append((t, count))
        t += tick
    return ticks


rates = st.floats(min_value=0.0, max_value=40.0, allow_nan=False)
segments = st.lists(st.tuples(st.floats(min_value=0.05, max_value=3.0,
                                        allow_nan=False), rates),
                    min_size=1, max_size=5)


class TestEmissionScheduleProperty:
    @given(segments=segments,
           tick=st.floats(min_value=0.02, max_value=1.0, allow_nan=False),
           nclients=st.integers(min_value=1, max_value=4),
           reject_every=st.integers(min_value=0, max_value=5))
    @settings(max_examples=60, deadline=None)
    def test_counts_and_cursor_sequence_unchanged(self, segments, tick,
                                                  nclients, reject_every):
        t, points = 0.0, []
        for width, rate in segments:
            points.append((t, rate))
            t += width
        points.append((t, 0.0))
        points = tuple(points)
        connector, secondary = run_secondary(points, tick, nclients,
                                             reject_every)
        ticks = due_per_tick(points, tick, nclients)
        total = sum(count for _, count in ticks)
        # one encode_batch per tick with anything due, stamped with the
        # tick's time...
        assert connector.batches == [count for _, count in ticks if count]
        assert connector.encodes == [t for t, count in ticks
                                     for _ in range(count)]
        # ...triggered round-robin over the clients...
        names = [f"c{i % nclients}" for i in range(total)]
        assert connector.triggered == names
        # ...and booked under the client that triggered it
        assert secondary.sent == list(zip(range(1, total + 1), names))
        assert secondary.rejected == (total // reject_every
                                      if reject_every else 0)
        assert secondary.late_warnings == 0


class TestSingleFormsAreTheBatchOfOne:
    def test_batch_only_connector_gets_encode(self):
        connector = StubConnector()
        spec = TransferSpec(AccountSample(1))
        assert connector.encode(spec, None, 0.5) == 1
        assert connector.encode(spec, None, 0.75) == 2
        assert connector.batches == [1, 1]
        assert connector.encodes == [0.5, 0.75]

    @pytest.mark.parametrize("max_attempts, outcome", [
        (1, (False, False)),    # rejected and dropped
        (2, (False, True)),     # rejected with a retry scheduled
    ])
    def test_submit_reports_each_admission_outcome(self, max_attempts,
                                                   outcome):
        params = replace(chain_params("quorum", TESTNET),
                         retry_policy=RetryPolicy(max_attempts=max_attempts),
                         mempool_policy=MempoolPolicy(capacity=1))
        net = BlockchainNetwork(params, TESTNET, Engine(),
                                scale=ExperimentScale(1.0), seed=1)
        admitted, rejected = transfer("a", "b"), transfer("c", "d")
        assert net.submit_batch((admitted,)) == 1
        assert not admitted.aborted and admitted in net.mempool
        accepted = net.submit_batch((rejected,)) == 1
        # a rejection is a scheduled retry or a recorded drop, never both
        dropped = rejected.aborted
        assert (accepted, not accepted and not dropped) == outcome
        assert net.drop_reasons.get("MempoolFullError", 0) == int(dropped)
        assert net.retries_scheduled == int(not accepted and not dropped)
