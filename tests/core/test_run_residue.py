"""What a finished run keeps of the transactions it offered.

A Secondary logs one ``(transactions, clients)`` entry per emission tick,
and ``Primary`` takes that log when it aggregates, after it has taken the
chain's statistics and emptied the pool. It consumes the log tick by
tick: once a tick's records are built, a transaction that only the log
referenced (evicted, or still pending when the run ended) is freed by
reference counting. So records replace transactions instead of adding to
them, after a run the live transactions are exactly the ones the network
still holds (committed, dropped or sealed), and the bytes a run retains
per offered transaction stay small however much of the load the chain
turned away.
"""

from __future__ import annotations

import gc
import tracemalloc
from dataclasses import replace
from pathlib import Path
from typing import List, Tuple

from repro.blockchains.registry import chain_params
from repro.chain.mempool import MempoolPolicy
from repro.chain.transaction import Transaction
from repro.core.primary import Primary
from repro.core.results import BenchmarkResult
from repro.core.spec import (AccountSample, LoadSchedule, TransferSpec,
                             load_spec, simple_spec)
from repro.sim.deployment import TESTNET

SPECS = Path(__file__).resolve().parents[2] / "examples" / "specs"

#: the most bytes a finished evicting run may retain per offered
#: transaction (records, blocks, the network's own state): 215-230 are
#: measured on CPython 3.11, plus a 30-byte margin. A log that outlives
#: aggregation keeps every evicted transaction and its client pairing
#: too, and retains ~490 bytes per offered transaction
MAX_RETAINED_BYTES_PER_TX = 260
#: how far the traced memory may rise above its level at the start of
#: aggregation, per offered transaction: ~2 bytes are measured. A record
#: that adds to its transaction instead of replacing it costs ~140
MAX_AGGREGATE_GROWTH_PER_TX = 16


def evicting_run() -> Tuple[Primary, BenchmarkResult]:
    """Ethereum at 300 TPS (scaled) into a 100-slot ``evict_oldest``
    pool: most of the 1 530 transactions are evicted, a few commit."""
    params = replace(chain_params("ethereum", TESTNET),
                     mempool_policy=MempoolPolicy(capacity=1000,
                                                  evict_oldest=True))
    primary = Primary("ethereum", "testnet", scale=0.1, seed=7,
                      params=params)
    spec = simple_spec(TransferSpec(AccountSample(50)),
                       LoadSchedule.constant(3000, 5))
    return primary, primary.run(spec, drain=30)


def live_transactions() -> List[Transaction]:
    gc.collect()
    return [obj for obj in gc.get_objects() if type(obj) is Transaction]


def test_the_log_holds_one_entry_per_tick_until_aggregation_takes_it(
        monkeypatch, encoded_batches):
    logs = {}
    aggregate = Primary._aggregate

    def spied(self, *args, **kwargs):
        logs.update((s.name, list(s.sent)) for s in self.secondaries)
        return aggregate(self, *args, **kwargs)

    monkeypatch.setattr(Primary, "_aggregate", spied)
    spec = simple_spec(TransferSpec(AccountSample(20)),
                       LoadSchedule.constant(15, 5))
    primary = Primary("quorum", "testnet", scale=0.2, seed=1)
    result = primary.run(spec, drain=30)

    entries = [entry for log in logs.values() for entry in log]
    # 15 TPS x 0.2 is 0.3 per tick, split over the Secondaries: many
    # ticks have nothing due, and those log nothing
    assert 0 < len(entries) < 5 / 0.1 * len(logs)
    # one entry per tick that encoded anything: the tick's own lists
    assert len(entries) == len(encoded_batches)
    assert sorted(id(txs) for txs, _ in entries) == \
        sorted(id(batch) for batch in encoded_batches)
    for txs, clients in entries:
        assert txs and len(txs) == len(clients)
    assert sum(len(txs) for txs, _ in entries) == len(result.records)
    # aggregation took every log
    assert all(secondary.sent == [] for secondary in primary.secondaries)


def test_a_finished_run_keeps_only_the_transactions_the_network_holds():
    before = live_transactions()
    known = {id(tx) for tx in before}
    primary, result = evicting_run()
    live = {id(tx) for tx in live_transactions() if id(tx) not in known}

    network = primary.network
    assert network.mempool.drops.get("evicted", 0) > 0
    assert network.committed
    held = [*network.committed, *network.dropped]
    for height in range(1, network.ledger.height + 1):
        held += network.ledger.block_at(height).transactions
    assert live == {id(tx) for tx in held}
    assert len(live) < result.submitted


def test_a_finished_run_retains_few_bytes_per_offered_transaction():
    evicting_run()      # one-off set-up (lazy imports, caches) first
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        primary, result = evicting_run()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert result.submitted == 1530
    assert retained / result.submitted < MAX_RETAINED_BYTES_PER_TX


def test_a_finished_run_empties_the_pool_and_keeps_its_counts():
    primary, result = evicting_run()
    network, stats = primary.network, result.chain_stats
    assert stats["pending"] > 0, "the run must end with a backlog"
    assert len(network.mempool) == 0
    assert network.mempool.resident_bytes == 0
    assert network.stats()["pending"] == 0
    # what the result says of the pool is what it held before it let go,
    # and the pool's counters still say it
    assert stats["mempool_resident"] == stats["pending"]
    assert network.mempool.drops["evicted"] == \
        stats["mempool_drop_evicted"] > 0
    assert network.mempool.admitted == stats["mempool_admitted"] > 0


def test_aggregation_replaces_transactions_with_records(monkeypatch):
    evicting_run()      # one-off set-up (lazy imports, caches) first
    traced = {}
    aggregate = Primary._aggregate

    def spied(self, *args, **kwargs):
        traced["start"] = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = aggregate(self, *args, **kwargs)
        traced["peak"] = tracemalloc.get_traced_memory()[1]
        return result

    monkeypatch.setattr(Primary, "_aggregate", spied)
    gc.collect()
    tracemalloc.start()
    try:
        _, result = evicting_run()
    finally:
        tracemalloc.stop()
    assert len(result.records) == result.submitted == 1530
    growth = traced["peak"] - traced["start"]
    assert growth / result.submitted < MAX_AGGREGATE_GROWTH_PER_TX


def test_a_finished_population_run_leaves_its_secondaries_nothing():
    # both lanes: the cohort's per-client log and the aggregate lane
    before = {id(tx) for tx in live_transactions()}
    spec = load_spec((SPECS / "population.yaml").read_text())
    primary = Primary("ethereum", "testnet", scale=0.05, seed=1)
    result = primary.run(spec)
    assert result.records
    assert result.chain_stats["arrivals_aggregate"] > len(result.records)
    for secondary in primary.secondaries:
        assert secondary.sent == []
        assert secondary.aggregate_sent == []

    network = primary.network
    held = [*network.committed, *network.dropped]
    for height in range(1, network.ledger.height + 1):
        held += network.ledger.block_at(height).transactions
    live = {id(tx) for tx in live_transactions() if id(tx) not in before}
    assert live == {id(tx) for tx in held}
