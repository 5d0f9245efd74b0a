"""The one emission-to-admission lane: encode_batch, the tick loop, submit.

* connector level — one ``SimConnector.encode_batch`` of *N* equals *N*
  batches of one (``encode`` is the batch of one), for transfers,
  invocations, fee markets and expiry chains: the property client
  retries and the DoS adversary rely on when they submit singly;
* field order — ``encode_batch`` builds each transaction by position,
  so every dataclass field is checked against transactions built by
  keyword from a twin connector's accounts, with the uids a fresh
  counter hands out;
* the unbuilt tail — what ``trigger_aggregate`` is told the node turned
  away consumes the uids, ring positions and sequence numbers that
  encoding it would have, and one sender's sequence numbers count up
  across batches and a skipped tail;
* schedule level (hypothesis) — the Secondary's tick loop emits what the
  carry accumulator dictates, at the tick's timestamp, round-robin over
  its clients, for arbitrary rate profiles, tick sizes and client counts;
* the derived single forms — a connector that implements only the batch
  forms gets ``encode``, and ``BlockchainNetwork.submit``
  answers ``accepted``/``will_retry`` for each admission outcome.

Run-level bytes are pinned by tests/core/test_result_golden.py.
"""

from __future__ import annotations

from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blockchains.base import BlockchainNetwork, ExperimentScale
from repro.blockchains.registry import build_network, chain_params
from repro.chain.mempool import MempoolPolicy
from repro.chain.transaction import (
    INVOKE_BASE_SIZE,
    TRANSFER_SIZE,
    Transaction,
    TxKind,
    invoke,
    reset_tx_counter,
    transfer,
)
from repro.contracts.registry import CONTRACT_FACTORIES
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


def every_field(tx):
    """Every dataclass field of *tx* by name; the signer as what it says
    about a fixed message, which names the key it signs with."""
    return [(f.name, getattr(tx, f.name)) for f in fields(Transaction)
            if f.name != "signer"] + [("signer", tx.signer("probe"))]


class TestEncodeBatchFieldOrder:
    """``encode_batch`` against an oracle built by keyword: a positional
    argument in the wrong slot, a dropped head hash or a uid handed out
    twice changes some field. Two batches per test, so the second one's
    uids show whether the first advanced the counter."""

    @staticmethod
    def encode_two_batches(connector, spec, first, second):
        reset_tx_counter()
        txs = connector.encode_batch(spec, None, 0.0, first)
        txs += connector.encode_batch(spec, None, 0.0, second)
        return txs

    @staticmethod
    def oracle(twin, total, stride, build):
        """*total* transactions built by keyword from *twin*'s accounts:
        the sender walks the ring *stride* positions at a time, each
        sender's sequence counts up from zero and the uids run from 0."""
        ring = list(twin.network.accounts)
        scheme = twin.network.params.signature_scheme
        head = twin.network.ledger.head.block_hash
        expiry = twin.network.params.tx_expiry is not None
        sent = {}
        expected = []
        for uid in range(total):
            sender = ring[stride * uid % len(ring)]
            sequence = sent.get(sender.address, 0)
            sent[sender.address] = sequence + 1
            expected.append(build(
                ring, uid, sender, sequence,
                uid=uid, signer=scheme.signer(sender.private_key),
                recent_block_hash=head if expiry else None))
        return expected

    @pytest.mark.parametrize("chain, fees", [
        *((chain, False) for chain in SIX_CHAINS), ("ethereum", True)])
    def test_transfers(self, chain, fees):
        spec = TransferSpec(AccountSample(10), amount=4)
        twin = fresh_connector(chain, fees=fees)
        price = {}
        if fees:
            price["fee_per_gas"], price["tip"] = \
                twin.network.fee_market.model.suggest()

        def build(ring, position, sender, sequence, **kwargs):
            recipient = ring[(2 * position + 1) % len(ring)]
            return transfer(sender.address, recipient.address, amount=4,
                            sequence=sequence, gas_limit=21_000,
                            **price, **kwargs)

        expected = self.oracle(twin, 25, 2, build)
        fast = fresh_connector(chain, fees=fees)
        got = self.encode_two_batches(fast, spec, 11, 14)
        assert [every_field(tx) for tx in got] == \
            [every_field(tx) for tx in expected]
        # one signer per sender, and the counter moved past both batches
        assert all(tx.signer is fast._signers[tx.sender] for tx in got)
        assert transfer("a", "b").uid == 25
        if chain == "solana":
            assert all(tx.recent_block_hash is not None for tx in got)
        if fees:
            assert all(tx.fee_per_gas > 1 for tx in got)

    def test_invocations(self):
        spec = InvokeSpec(AccountSample(10), ContractSample("exchange"),
                          "order", ("google", 2))
        twin = fresh_connector("quorum")
        twin.create_resource(spec.contract)
        contract = CONTRACT_FACTORIES["exchange"]().name
        gas_limit = twin._invoke_gas_limit(
            contract, "order",
            invoke(twin.network.accounts.addresses()[0], contract, "order",
                   ("google", 2), gas_limit=5_000_000))

        def build(ring, position, sender, sequence, **kwargs):
            return invoke(sender.address, contract, "order", ("google", 2),
                          sequence=sequence, gas_limit=gas_limit, **kwargs)

        expected = self.oracle(twin, 23, 1, build)
        fast = fresh_connector("quorum")
        fast.create_resource(spec.contract)
        got = self.encode_two_batches(fast, spec, 9, 14)
        assert all(tx.kind is TxKind.INVOKE for tx in got)
        assert [every_field(tx) for tx in got] == \
            [every_field(tx) for tx in expected]
        assert transfer("a", "b").uid == 23


class TestEncodeBatchWireSize:
    """Each branch of ``encode_batch`` stores the wire size the builders
    give: ``TRANSFER_SIZE``, or ``INVOKE_BASE_SIZE`` plus one 32-byte
    word per argument."""

    def test_transfers(self):
        fast = fresh_connector("quorum")
        txs = fast.encode_batch(TransferSpec(AccountSample(10)), None,
                                0.0, 5)
        assert [tx.size for tx in txs] == [TRANSFER_SIZE] * 5

    @pytest.mark.parametrize("dapp, function, args", [
        ("counter", "add", ()), ("exchange", "order", ("google", 2))])
    def test_invocations(self, dapp, function, args):
        spec = InvokeSpec(AccountSample(10), ContractSample(dapp),
                          function, args)
        fast = fresh_connector("quorum")
        fast.create_resource(spec.contract)
        txs = fast.encode_batch(spec, None, 0.0, 4)
        assert [tx.size for tx in txs] == \
            [INVOKE_BASE_SIZE + 32 * len(args)] * 4


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

    def test_sequence_numbers_increment(self):
        # sender i % 3 at position i (stride 2 over 3 accounts); its
        # sequence number is how often it sent before, built or skipped
        spec = TransferSpec(AccountSample(3))
        connector = fresh_connector("quorum", accounts=3)
        ring = list(connector.network.accounts)
        built = connector.encode_batch(spec, None, 0.0, 4)
        connector.trigger_aggregate([], spec, 5)
        built += connector.encode_batch(spec, None, 0.0, 6)
        positions = [*range(4), *range(9, 15)]
        senders = [ring[2 * p % 3].address for p in range(15)]
        assert [(tx.sender, tx.sequence) for tx in built] == \
            [(senders[p], senders[:p].count(senders[p])) for p in positions]
        assert [a.sequence for a in ring] == [5, 5, 5]

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
        # ...and booked under the client that triggered it, one log entry
        # per tick that emitted anything
        assert [len(txs) for txs, _ in secondary.sent] == connector.batches
        assert [(tx, client.name) for txs, clients in secondary.sent
                for tx, client in zip(txs, clients)] == \
            list(zip(range(1, total + 1), names))
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
                         mempool_policy=MempoolPolicy(capacity=1))
        net = BlockchainNetwork(params, TESTNET, Engine(),
                                scale=ExperimentScale(1.0), seed=1)
        # equal bids, resent unbumped: the full pool rejects the second
        net.attach_fees(FeeSpec(fee_bump=1.0, retry_attempts=max_attempts))
        admitted = transfer("a", "b", fee_per_gas=20, tip=1)
        rejected = transfer("c", "d", fee_per_gas=20, tip=1)
        assert net.submit_batch((admitted,)) == 1
        assert not admitted.aborted and admitted in net.mempool
        accepted = net.submit_batch((rejected,)) == 1
        # a rejection is a scheduled retry or a recorded drop, never both
        dropped = rejected.aborted
        assert (accepted, not accepted and not dropped) == outcome
        assert net.drop_reasons.get("UnderpricedError", 0) == int(dropped)
        assert net.retries_scheduled == int(not accepted and not dropped)
