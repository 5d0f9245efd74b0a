"""Cross-layer invariants checked through full benchmark runs.

These are the "does the whole machine conserve what it should" checks:
contract state must agree with receipts, the ledger must contain exactly
the transactions that were popped from the pool, and the bookkeeping that
the DIABLO Primary aggregates must be consistent with the chain's own
accounting.
"""

from __future__ import annotations

import pytest

from repro.blockchains.base import ExperimentScale
from repro.blockchains.registry import build_network
from repro.chain.receipt import ExecStatus
from repro.chain.transaction import invoke, transfer
from repro.core.primary import Primary
from repro.sim.engine import Engine
from repro.workloads import stock_trace


def run_network(chain="quorum", config="testnet", scale=0.2, seed=2):
    engine = Engine()
    net = build_network(chain, config, engine,
                        scale=ExperimentScale(scale), seed=seed)
    net.create_accounts(50)
    return engine, net


class TestStateReceiptAgreement:
    def test_exchange_supply_matches_successful_buys(self):
        """Every committed buyApple decrements the supply by exactly one."""
        from repro.contracts.exchange import make_exchange_contract
        engine, net = run_network()
        supply = 10_000
        net.deploy_contract(make_exchange_contract(supply=supply))
        accounts = net.accounts.addresses()
        txs = [invoke(accounts[i % 50], "ExchangeContractGafam", "buyApple",
                      gas_limit=100_000) for i in range(400)]
        net.submit_batch(txs)
        engine.run(until=120.0)
        storage = net.state.storage("contract:ExchangeContractGafam")
        # a successful execution commits; a failed one is dropped with its
        # execution status
        successes = sum(1 for tx in txs if tx.committed_at is not None)
        assert successes == len(net.committed)
        assert storage.get("supply:apple") == supply - successes
        assert successes > 0

    def test_counter_equals_committed_adds(self):
        from repro.contracts.webservice import make_counter_contract
        engine, net = run_network(chain="solana")
        net.active_until = 60.0
        net.deploy_contract(make_counter_contract())
        accounts = net.accounts.addresses()
        # Counter.add costs 114 636 gas on solana: the limit must cover it
        txs = [invoke(accounts[i % 50], "Counter", "add", gas_limit=200_000)
               for i in range(200)]
        net.submit_batch(txs)
        engine.run(until=120.0)
        storage = net.state.storage("contract:Counter")
        executed = sum(1 for tx in txs if tx.committed_at is not None)
        assert executed > 0
        assert storage.get("count") == executed
        assert not any(tx.abort_reason == ExecStatus.OUT_OF_GAS.value
                       for tx in txs)

    def test_total_balance_is_conserved_by_transfers(self):
        engine, net = run_network()
        accounts = net.accounts.addresses()
        total_before = sum(net.state.balance(a) for a in accounts)
        txs = [transfer(accounts[i % 50], accounts[(i * 3 + 1) % 50], 5,
                        gas_limit=21_000) for i in range(300)]
        net.submit_batch(txs)
        engine.run(until=60.0)
        total_after = sum(net.state.balance(a) for a in accounts)
        assert total_after == total_before


def ledger_transactions(net):
    return [tx for height in range(net.ledger.height + 1)
            for tx in net.ledger.block_at(height).transactions]


class TestLedgerAccounting:
    def test_ledger_contains_every_non_dropped_transaction(self):
        engine, net = run_network()
        net.active_until = 30.0
        accounts = net.accounts.addresses()
        txs = [transfer(accounts[i % 50], accounts[(i + 1) % 50], 1,
                        gas_limit=21_000) for i in range(250)]
        net.submit_batch(txs)
        engine.run(until=120.0)
        on_chain = {tx.uid for tx in ledger_transactions(net)}
        dropped = {tx.uid for tx in net.dropped}
        for tx in txs:
            assert (tx.uid in on_chain) or (tx.uid in dropped) \
                or tx in net.mempool

    def test_no_transaction_is_included_twice(self):
        engine, net = run_network(chain="avalanche")
        net.active_until = 60.0
        accounts = net.accounts.addresses()
        txs = [transfer(accounts[i % 50], accounts[(i + 1) % 50], 1,
                        gas_limit=21_000) for i in range(200)]
        net.submit_batch(txs)
        engine.run(until=180.0)
        uids = [tx.uid for tx in ledger_transactions(net)]
        assert len(uids) == len(set(uids))

    def test_block_heights_are_dense(self):
        engine, net = run_network(chain="diem")
        accounts = net.accounts.addresses()
        net.submit_batch([transfer(accounts[0], accounts[1], 1,
                                   gas_limit=21_000) for _ in range(50)])
        engine.run(until=60.0)
        for height in range(net.ledger.height + 1):
            assert net.ledger.block_at(height).height == height

    def test_gas_used_recorded_per_block(self):
        engine, net = run_network()
        accounts = net.accounts.addresses()
        net.submit_batch([transfer(accounts[0], accounts[1], 1,
                                   gas_limit=21_000) for _ in range(30)])
        engine.run(until=60.0)
        total_gas = sum(net.ledger.block_at(h).gas_used
                        for h in range(1, net.ledger.height + 1))
        assert total_gas == 30 * 21_000


class TestPrimaryAccountingConsistency:
    def test_records_match_chain_counters(self):
        primary = Primary("quorum", "testnet", scale=0.2, seed=3)
        trace = stock_trace("google")
        result = primary.run(trace.spec(accounts=200), trace.name, drain=240)
        committed_records = sum(1 for r in result.records if r.committed)
        assert committed_records == len(primary.network.committed)
        aborted_records = sum(1 for r in result.records if r.aborted)
        assert aborted_records == len(primary.network.dropped)

    def test_every_sent_transaction_is_recorded_once(self, encoded_batches):
        primary = Primary("algorand", "testnet", scale=0.2, seed=3)
        trace = stock_trace("google")
        result = primary.run(trace.spec(accounts=200), trace.name, drain=240)
        uids = [r.uid for r in result.records]
        assert len(uids) == len(set(uids))
        sent = sum(len(batch) for batch in encoded_batches)
        assert len(uids) == sent
