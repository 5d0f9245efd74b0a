"""Figure 4 — robustness: 1,000 vs 10,000 TPS in each chain's best config.

"we configured DIABLO to send native transactions ... at a constant rate
of 10,000 TPS, which is 10x higher than the sending rate in the deployment
challenge" (§6.3).

Shape targets (paper text):
* Diem's throughput divides by ~10; Quorum's drops to ~0 (the two
  deterministic leader-based BFT chains are the most affected);
* Algorand divides by ~1.45 with latency ~x2.43; Solana divides by ~1.94;
* Avalanche's throughput is *not* hurt — it rises (x1.38 in the paper);
* Ethereum commits a negligible fraction (0.09 %).
"""

from __future__ import annotations

import pytest

from repro.workloads import constant_transfer_trace

from conftest import (
    ALL_CHAINS,
    BEST_CONFIGURATION,
    bench_scale,
    print_figure,
    run_chain_trace,
)

SCALE = 0.05


@pytest.fixture(scope="module")
def fig4_results():
    scale = bench_scale(SCALE)
    results = {}
    for rate in (1_000, 10_000):
        trace = constant_transfer_trace(rate)
        for chain in ALL_CHAINS:
            results[(chain, rate)] = run_chain_trace(
                chain, BEST_CONFIGURATION[chain], trace, scale=scale)
    return results


def _ratio(results, chain):
    low = results[(chain, 1_000)].average_throughput
    high = results[(chain, 10_000)].average_throughput
    return low, high, (low / high if high > 0 else float("inf"))


def test_fig4_rows(benchmark, fig4_results):
    results = benchmark.pedantic(lambda: fig4_results, rounds=1, iterations=1)
    for rate in (1_000, 10_000):
        print_figure(f"Figure 4 — constant {rate} TPS (best config/chain)",
                     {chain: results[(chain, rate)] for chain in ALL_CHAINS})


def test_fig4_leader_bft_chains_collapse(benchmark, fig4_results):
    diem_low, diem_high, diem_ratio = benchmark.pedantic(
        lambda: _ratio(fig4_results, "diem"), rounds=1, iterations=1)
    # Diem: divided by ~10
    assert 5 <= diem_ratio <= 20, f"Diem ratio {diem_ratio:.1f}"
    # Quorum: drops to (near) zero
    quorum_low, quorum_high, _ = _ratio(fig4_results, "quorum")
    assert quorum_high < 0.2 * quorum_low
    assert quorum_high < 250
    # the collapse came with round changes (the IBFT cascade)
    assert fig4_results[("quorum", 10_000)].chain_stats["view_changes"] > 0


#: Solana's Fig. 4 row has been red since 4582e28 (the resource-exhaustion
#: model): its validators OOM-crash at 10 kTPS instead of degrading
SOLANA_RED = pytest.mark.xfail(
    strict=True, reason="red since 4582e28 (resource-exhaustion model:"
    " Solana validators OOM at 10 kTPS); ROADMAP item 1(b)")


def test_fig4_probabilistic_chains_degrade_gracefully(benchmark,
                                                      fig4_results):
    algorand_low, algorand_high, algorand_ratio = benchmark.pedantic(
        lambda: _ratio(fig4_results, "algorand"), rounds=1, iterations=1)
    assert 1.1 <= algorand_ratio <= 2.2, f"Algorand /{algorand_ratio:.2f}"
    # it does NOT collapse: it keeps committing hundreds of TPS
    assert algorand_high > 300


@SOLANA_RED
def test_fig4_solana_degrades_gracefully(benchmark, fig4_results):
    solana_low, solana_high, solana_ratio = benchmark.pedantic(
        lambda: _ratio(fig4_results, "solana"), rounds=1, iterations=1)
    print(f"Solana /{solana_ratio:.2f}, {solana_high:.0f} TPS at 10 kTPS")
    assert 1.4 <= solana_ratio <= 3.0, f"Solana /{solana_ratio:.2f}"
    assert solana_high > 300


def _latency_penalty(results, chain):
    return (results[(chain, 10_000)].average_latency
            / results[(chain, 1_000)].average_latency)


def test_fig4_latency_penalties(benchmark, fig4_results):
    penalty = benchmark.pedantic(
        lambda: _latency_penalty(fig4_results, "algorand"),
        rounds=1, iterations=1)
    # Algorand x2.43 in the paper — assert the penalty exists and stays
    # within the same ballpark
    assert 1.5 <= penalty <= 4.0


@SOLANA_RED
def test_fig4_solana_latency_penalty(benchmark, fig4_results):
    penalty = benchmark.pedantic(
        lambda: _latency_penalty(fig4_results, "solana"),
        rounds=1, iterations=1)
    print(f"Solana latency x{penalty:.2f}")
    # x4 in the paper
    assert 1.3 <= penalty <= 6.0, f"Solana latency x{penalty:.2f}"


def test_fig4_avalanche_throughput_rises(benchmark, fig4_results):
    low, high, _ = benchmark.pedantic(
        lambda: _ratio(fig4_results, "avalanche"), rounds=1, iterations=1)
    # "its throughput is multiplied by 1.38" — overload packs blocks fuller
    assert high > low * 1.05
    assert high < low * 1.8


def test_fig4_ethereum_negligible(benchmark, fig4_results):
    result = benchmark.pedantic(
        lambda: fig4_results[("ethereum", 10_000)], rounds=1, iterations=1)
    committed = sum(1 for r in result.records if r.committed)
    # 0.09 % in the paper; a fraction of a percent here
    assert committed / result.submitted < 0.01
