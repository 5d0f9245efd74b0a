"""A receipt lives until its block commits.

``BlockchainNetwork`` keeps a block's receipts only until the block is
appended, and beyond that only the status of each failed execution, in
``_failed`` (uid -> status), until the block commits (the status becomes
the drop reason) or fails consensus and is requeued (re-execution decides
again). These tests hold that map to its meaning on all six chains, under
byzantine quorum denial that requeues blocks, and check what a finished run
retains and how commit listeners are called.
"""

from __future__ import annotations

import gc
from collections import Counter

from hypothesis import example, given, settings, strategies as st

from repro.blockchains.base import ExperimentScale
from repro.blockchains.registry import CHAIN_NAMES, build_network
from repro.chain.receipt import ExecStatus, Receipt
from repro.chain.transaction import invoke, transfer
from repro.contracts import make_counter_contract
from repro.core.primary import Primary
from repro.core.spec import (
    AccountSample,
    LoadSchedule,
    TransferSpec,
    simple_spec,
)
from repro.sim.byzantine import ByzantineSchedule, Silence
from repro.sim.engine import Engine

SENDERS = 20
#: below Counter.add's intrinsic gas on every VM: execution ends out_of_gas
STARVED_GAS = 25_000


def make_net(chain, seed=1):
    engine = Engine()
    net = build_network(chain, "testnet", engine,
                        scale=ExperimentScale(0.1), seed=seed)
    net.create_accounts(SENDERS)
    net.deploy_contract(make_counter_contract())
    return engine, net


def deny_quorum(net, start, stop):
    """Every validator silent in [start, stop): each block sealed in the
    window fails consensus and returns to the pool."""
    net.attach_byzantine(ByzantineSchedule(tuple(
        Silence(start, stop, node) for node in range(len(net.endpoints)))))


def in_flight(net, tx):
    """Sealed into a block that is not final yet (or not appended yet)."""
    return (tx.committed_at is None and not tx.aborted
            and tx not in net.mempool)


def check_failure_map(net, by_uid):
    for uid in net._failed:
        assert in_flight(net, by_uid[uid]), by_uid[uid]


def step(engine):
    """Run one event; False once the calendar is empty."""
    executed = engine.events_executed
    engine.run(max_events=1)
    return engine.events_executed > executed


def drain(engine, net, txs, by_uid, horizon=600.0):
    """Run until every transaction has committed or dropped. A chain with
    a confirmation depth seals empty blocks for ever, so the calendar
    itself never empties."""
    while any(tx.committed_at is None and not tx.aborted for tx in txs):
        assert engine.now < horizon and step(engine)
        check_failure_map(net, by_uid)


@settings(max_examples=60, deadline=None)
# blocks fail consensus and requeue, on a chain without and one with a
# confirmation depth
@example(chain="diem", transfers=12, starved=4, denial=(0.0, 5.0), seed=1)
@example(chain="solana", transfers=12, starved=4, denial=(0.5, 4.0), seed=2)
@given(chain=st.sampled_from(CHAIN_NAMES),
       transfers=st.integers(min_value=1, max_value=30),
       starved=st.integers(min_value=0, max_value=8),
       denial=st.one_of(st.none(), st.tuples(
           st.floats(min_value=0.0, max_value=4.0),
           st.floats(min_value=0.5, max_value=12.0))),
       seed=st.integers(min_value=0, max_value=50))
def test_every_sealed_transaction_ends_exactly_once(chain, transfers, starved,
                                                    denial, seed):
    engine, net = make_net(chain, seed)
    if denial is not None:
        start, length = denial
        deny_quorum(net, start, start + length)
    accounts = net.accounts.addresses()
    txs = [transfer(accounts[i % SENDERS], accounts[(i + 1) % SENDERS], 1,
                    gas_limit=21_000) for i in range(transfers)]
    txs += [invoke(accounts[i % SENDERS], "Counter", "add",
                   gas_limit=STARVED_GAS) for i in range(starved)]
    by_uid = {tx.uid: tx for tx in txs}
    half = len(txs) // 2
    engine.schedule_at(0.0, lambda: net.submit_batch(txs[:half]))
    engine.schedule_at(1.5, lambda: net.submit_batch(txs[half:]))
    # mid-run: after every event the map holds only in-flight uids
    while engine.now < 6.0 and step(engine):
        check_failure_map(net, by_uid)
    committed = Counter(tx.uid for tx in net.committed)
    dropped = Counter(tx.uid for tx in net.dropped)
    for tx in txs:
        fates = (committed[tx.uid], dropped[tx.uid], tx in net.mempool,
                 in_flight(net, tx) and tx.submitted_at is not None)
        assert sum(fates) == 1, (tx, fates)
    # drained: every block holding one of them is final, the map is empty
    drain(engine, net, txs, by_uid)
    assert net._failed == {}
    committed = Counter(tx.uid for tx in net.committed)
    dropped = Counter(tx.uid for tx in net.dropped)
    for tx in txs[:transfers]:
        assert (committed[tx.uid], dropped[tx.uid]) == (1, 0), tx
    for tx in txs[transfers:]:
        assert (committed[tx.uid], dropped[tx.uid]) == (0, 1), tx
        assert tx.abort_reason == ExecStatus.OUT_OF_GAS.value


def test_a_requeued_failure_that_succeeds_on_re_execution_commits():
    """The entry of a failed first execution must not outlive the requeue:
    a map that kept it would drop this transaction as ``reverted``."""
    engine, net = make_net("diem")
    deny_quorum(net, 0.0, 3.0)
    recipient = net.accounts.addresses()[0]
    tx = transfer("unfunded-sender", recipient, amount=5, gas_limit=21_000)
    statuses = []
    execute_batch = net._execute_batch

    def spy(batch):
        receipts, cpu = execute_batch(batch)
        statuses.extend(receipt.status for receipt in receipts)
        return receipts, cpu

    net._execute_batch = spy
    net.submit_batch((tx,))
    while net.blocks_failed == 0:
        assert step(engine)
    # the first execution failed, consensus denied the block: the
    # transaction is back in the pool
    assert statuses == [ExecStatus.REVERTED]
    assert tx in net.mempool
    # a denied block's execution is not rolled back, so fund every
    # re-execution until the window closes
    net.state.credit("unfunded-sender", 5 * 100)
    engine.run(until=60.0)
    assert statuses[-1] is ExecStatus.SUCCESS
    assert not tx.aborted and tx.committed_at is not None
    assert net.committed == [tx] and net.dropped == []
    assert net._failed == {}


def _receipts_alive():
    gc.collect()
    return sum(1 for obj in gc.get_objects() if isinstance(obj, Receipt))


def test_a_finished_run_retains_no_receipt():
    before = _receipts_alive()
    primary = Primary("diem", "testnet", scale=0.1, seed=3)
    spec = simple_spec(TransferSpec(AccountSample(50)),
                       LoadSchedule.constant(100, 3))
    result = primary.run(spec, "retained", drain=30)
    committed = sum(1 for record in result.records if record.committed)
    assert committed == len(primary.network.committed) > 0
    # the network, its ledger and every transaction are still alive here
    assert _receipts_alive() == before


def test_commit_listeners_get_one_call_per_final_block_in_block_order():
    engine, net = make_net("ethereum")     # a chain with confirmation depth
    calls = []
    net.on_commit(calls.append)
    accounts = net.accounts.addresses()
    txs = [transfer(accounts[i % SENDERS], accounts[(i + 1) % SENDERS], 1,
                    gas_limit=21_000) for i in range(40)]
    txs += [invoke(accounts[0], "Counter", "add", gas_limit=STARVED_GAS)]
    for step in range(4):
        chunk = txs[step::4]
        engine.schedule_at(3.0 * step, lambda chunk=chunk:
                           net.submit_batch(chunk))
    engine.run(until=120.0)
    assert all(tx.committed_at is not None or tx.aborted for tx in txs)
    ledger = net.ledger
    blocks = [[tx for tx in ledger.block_at(height).transactions
               if tx.committed_at is not None]
              for height in range(1, ledger.height + 1)]
    expected = [block for block in blocks if block]
    assert len(expected) > 1
    assert calls == expected
    assert [tx for call in calls for tx in call] == net.committed
    assert all(len({tx.committed_at for tx in call}) == 1 for call in calls)
