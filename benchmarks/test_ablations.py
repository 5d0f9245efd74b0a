"""Ablation benchmarks for the design choices §6 attributes results to.

Each ablation flips exactly one mechanism and checks that the evaluated
effect appears/disappears, grounding the paper's causal claims:

* leader-based deterministic BFT vs graceful-degradation consensus under
  constant overload (§6.3);
* bounded vs unbounded mempool (the §6.5 robustness/availability
  trade-off between Diem and Quorum);
* hard VM budget vs unbounded gas (§6.4 universality);
* block-period throttling (the §6.2 Avalanche conjecture);
* confirmation depth (Solana's 30 confirmations, §5.2);
* polling vs blocking commit detection (the Algorand-DIABLO workaround,
  §5.2).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.blockchains.base import BlockchainNetwork, ExperimentScale
from repro.blockchains.registry import chain_params
from repro.chain.mempool import MempoolPolicy
from repro.consensus.models import DAGPerf, PoHPerf, WanProfile
from repro.core.interface import SimConnector
from repro.core.primary import Primary
from repro.core.runner import run_trace
from repro.sim.deployment import get_configuration
from repro.sim.engine import Engine
from repro.vm.base import VirtualMachine
from repro.vm.program import VMCapabilities
from repro.workloads import constant_transfer_trace, stock_trace

from conftest import bench_scale

SCALE = 0.05


def run_with_params(params, configuration, trace, scale, seed=1,
                    accounts=500, drain=240.0):
    """run_trace, but with hand-modified ChainParams."""
    primary = Primary(params.name, configuration, scale=scale, seed=seed,
                      params=params)
    return primary.run(trace.spec(accounts=accounts), trace.name, drain=drain)


def test_ablation_mempool_policy(benchmark):
    """Diem's bounded pool is what keeps it alive under overload — and what
    drops burst transactions. Lifting the bound turns Diem Quorum-shaped:
    more of the burst survives, but the pool balloons."""
    scale = bench_scale(SCALE)

    def experiment():
        config = "datacenter"
        trace = stock_trace("apple")  # the 10k-tx burst
        bounded = run_trace("diem", config, trace, accounts=500,
                            scale=scale, drain=300.0)
        unbounded_params = replace(
            chain_params("diem", get_configuration(config)),
            mempool_policy=MempoolPolicy(capacity=None,
                                         per_sender_quota=None))
        unbounded = run_with_params(unbounded_params, config, trace, scale,
                                    drain=300.0)
        return bounded, unbounded

    bounded, unbounded = benchmark.pedantic(experiment, rounds=1, iterations=1)
    dropped_bounded = bounded.abort_reasons().get("MempoolFullError", 0) \
        + bounded.abort_reasons().get("SenderQuotaError", 0)
    dropped_unbounded = unbounded.abort_reasons().get("MempoolFullError", 0)
    print(f"\nbounded pool dropped {dropped_bounded},"
          f" unbounded dropped {dropped_unbounded}")
    assert dropped_bounded > 0
    assert dropped_unbounded == 0
    assert unbounded.commit_ratio > bounded.commit_ratio


def test_ablation_consensus_overload_class(benchmark):
    """Under 10x overload the leader-based deterministic BFT chain loses a
    far larger fraction of its 1x throughput than the probabilistic one —
    the §6.3/§6.6 class distinction."""
    scale = bench_scale(SCALE)

    def experiment():
        ratios = {}
        for chain, config in (("quorum", "datacenter"),
                              ("algorand", "testnet")):
            low = run_trace(chain, config, constant_transfer_trace(1_000),
                            accounts=500, scale=scale)
            high = run_trace(chain, config, constant_transfer_trace(10_000),
                             accounts=500, scale=scale)
            ratios[chain] = (high.average_throughput
                             / max(1e-9, low.average_throughput))
        return ratios

    ratios = benchmark.pedantic(experiment, rounds=1, iterations=1)
    print(f"\nthroughput retention under 10x: {ratios}")
    assert ratios["quorum"] < 0.25          # collapses
    assert ratios["algorand"] > 0.5         # degrades gracefully
    assert ratios["algorand"] > 3 * ratios["quorum"]


def test_ablation_hard_budget(benchmark):
    """Lifting the MoveVM's hard budget makes the Mobility DApp runnable on
    Diem — the budget, not the workload, is what Fig. 5's X measures."""
    from repro.chain.state import WorldState
    from repro.chain.transaction import invoke
    from repro.contracts.mobility import make_uber_contract
    from repro.vm.machines import MOVE_VM_CAPS

    def experiment():
        outcomes = {}
        for label, caps in (
                ("stock-movevm", MOVE_VM_CAPS),
                ("unbounded-movevm", replace(MOVE_VM_CAPS, hard_budget=None))):
            vm = VirtualMachine(caps)
            state = WorldState()
            vm.deploy(state, make_uber_contract())
            receipt = vm.execute(state, invoke(
                "a", "ContractUber", "checkDistance", (1, 1),
                gas_limit=50_000_000))
            outcomes[label] = receipt.status.value
        return outcomes

    outcomes = benchmark.pedantic(experiment, rounds=1, iterations=1)
    print(f"\n{outcomes}")
    assert outcomes["stock-movevm"] == "budget_exceeded"
    assert outcomes["unbounded-movevm"] == "success"


def test_ablation_block_period(benchmark):
    """Halving Avalanche's 1.9 s block period roughly doubles its committed
    throughput — its ceiling is the period x gas limit, not the hardware
    (the §6.2 throttling conjecture)."""
    scale = bench_scale(SCALE)

    def experiment():
        config = "datacenter"
        trace = constant_transfer_trace(1_000)
        stock = run_trace("avalanche", config, trace, accounts=500,
                          scale=scale)
        params = chain_params("avalanche", get_configuration(config))
        fast_params = replace(
            params,
            perf_model=lambda profile: DAGPerf(
                profile, beta=12, block_period=0.95,
                overload_gamma=-0.06, packing_cap=1.8))
        fast = run_with_params(fast_params, config, trace, scale)
        return stock, fast

    stock, fast = benchmark.pedantic(experiment, rounds=1, iterations=1)
    print(f"\nperiod 1.9s -> {stock.average_throughput:.0f} TPS,"
          f" period 0.95s -> {fast.average_throughput:.0f} TPS")
    assert fast.average_throughput > 1.6 * stock.average_throughput


def test_ablation_confirmation_depth(benchmark):
    """Solana's 12 s latency is almost entirely the 30-confirmation rule:
    at depth 1 the same chain answers in about a second."""
    scale = bench_scale(SCALE)

    def experiment():
        config = "testnet"
        trace = constant_transfer_trace(500, 30)
        stock = run_trace("solana", config, trace, accounts=500, scale=scale)
        shallow_params = replace(
            chain_params("solana", get_configuration(config)),
            confirmation_depth=1)
        shallow = run_with_params(shallow_params, config, trace, scale)
        return stock, shallow

    stock, shallow = benchmark.pedantic(experiment, rounds=1, iterations=1)
    print(f"\n30 confirmations -> {stock.average_latency:.1f}s,"
          f" 1 confirmation -> {shallow.average_latency:.1f}s")
    assert stock.average_latency > 12.0
    assert shallow.average_latency < 3.0


def test_ablation_commit_detection_api(benchmark):
    """Blocking per-transaction commit detection adds client-visible
    latency versus block polling — why the authors switched Algorand to
    polling ('improved significantly Algorand's performance', §5.2)."""
    scale = bench_scale(SCALE)

    def experiment():
        config = "testnet"
        trace = constant_transfer_trace(500, 30)
        polling = run_trace("algorand", config, trace, accounts=500,
                            scale=scale)
        blocking_params = replace(
            chain_params("algorand", get_configuration(config)),
            commit_api="blocking", poll_interval=4.0)
        blocking = run_with_params(blocking_params, config, trace, scale)
        return polling, blocking

    polling, blocking = benchmark.pedantic(experiment, rounds=1, iterations=1)
    print(f"\npolling latency {polling.average_latency:.1f}s,"
          f" blocking latency {blocking.average_latency:.1f}s")
    assert blocking.average_latency > polling.average_latency + 2.0
