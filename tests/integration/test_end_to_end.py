"""End-to-end integration tests: full DIABLO runs on simulated chains.

These exercise the whole stack — spec -> Primary -> Secondaries ->
blockchain runtime -> VM -> consensus model -> results — at small scale.
"""

from __future__ import annotations

import pytest

from repro.core.runner import run_trace
from repro.sweep import CellOptions, SweepSpec, run_sweep
from repro.workloads import (
    constant_transfer_trace,
    stock_trace,
    uber_trace,
)

FAST = dict(accounts=100, scale=0.05, drain=120)


class TestNativeTransfersAcrossChains:
    @pytest.mark.parametrize("chain", ["algorand", "avalanche", "diem",
                                       "ethereum", "quorum", "solana"])
    def test_every_chain_commits_native_transfers(self, chain):
        result = run_trace(chain, "testnet", constant_transfer_trace(200, 20),
                           **FAST)
        assert result.submitted > 0
        committed = sum(1 for r in result.records if r.committed)
        assert committed > 0, f"{chain} committed nothing"

    def test_fast_chain_beats_slow_chain(self):
        sweep = run_sweep(SweepSpec(
            chains=("quorum", "ethereum"), configurations=("testnet",),
            workloads=(constant_transfer_trace(500, 30),),
            scales=(FAST["scale"],),
            options=CellOptions(accounts=FAST["accounts"],
                                drain=FAST["drain"])))
        results = {o.cell.chain: o.result for o in sweep.outcomes}
        assert (results["quorum"].average_throughput
                > 5 * results["ethereum"].average_throughput)


class TestDAppRuns:
    def test_exchange_burst_on_quorum(self):
        result = run_trace("quorum", "testnet", stock_trace("google"),
                           accounts=100, scale=0.2, drain=180)
        assert result.commit_ratio > 0.95
        # supply counters moved on-chain
        primary_unused = result.chain_stats
        assert result.average_throughput > 0

    def test_uber_runs_on_geth_chains_only(self):
        geth = run_trace("quorum", "testnet", uber_trace(), **FAST)
        assert not geth.execution_failed()
        restricted = run_trace("diem", "testnet", uber_trace(), **FAST)
        assert restricted.execution_failed()
        assert restricted.abort_reasons().get("budget_exceeded", 0) > 0

    def test_commit_timestamps_are_causal(self):
        result = run_trace("solana", "testnet",
                           constant_transfer_trace(100, 10), **FAST)
        for record in result.records:
            if record.committed:
                assert record.committed_at > record.submitted_at


class TestLoadShapes:
    def test_burst_workload_queues_then_drains(self):
        result = run_trace("quorum", "testnet", stock_trace("microsoft"),
                           accounts=100, scale=0.05, drain=240)
        # the burst exceeds the instantaneous capacity: early transactions
        # see higher latency than the steady-state tail
        lats = result.latencies()
        assert lats.size > 0
        assert result.commit_ratio > 0.9

    def test_overload_reduces_commit_ratio(self):
        light = run_trace("diem", "testnet", constant_transfer_trace(500, 20),
                          **FAST)
        heavy = run_trace("diem", "testnet",
                          constant_transfer_trace(20_000, 20), **FAST)
        assert heavy.commit_ratio < light.commit_ratio

    def test_time_series_has_signal(self):
        result = run_trace("quorum", "testnet",
                           constant_transfer_trace(400, 20), **FAST)
        _, tput = result.throughput_series()
        assert tput.max() > 0


class TestDeterminism:
    def test_identical_runs_are_identical(self):
        a = run_trace("algorand", "devnet", constant_transfer_trace(300, 15),
                      seed=3, **FAST)
        b = run_trace("algorand", "devnet", constant_transfer_trace(300, 15),
                      seed=3, **FAST)
        # transaction uids are process-global, so compare behaviour:
        # timestamps and outcomes must match one-for-one
        def shape(result):
            return [(r.submitted_at, r.committed_at, r.aborted)
                    for r in result.records]

        assert shape(a) == shape(b)

    def test_different_seeds_differ_somewhere(self):
        a = run_trace("avalanche", "devnet", constant_transfer_trace(300, 15),
                      seed=3, **FAST)
        b = run_trace("avalanche", "devnet", constant_transfer_trace(300, 15),
                      seed=4, **FAST)
        # jitter differs; aggregate behaviour stays close
        assert a.average_throughput == pytest.approx(
            b.average_throughput, rel=0.25)
