"""Shared helpers for the benchmark suite.

Every benchmark regenerates one of the paper's tables or figures:
it runs the corresponding experiment on the simulated chains, prints the
rows/series the paper reports, and asserts the paper's *shape* claims
(who wins, by roughly what factor, where the crossovers fall) as
documented in EXPERIMENTS.md.

Scale: experiments run under the linear scale transform of
``repro.blockchains.base.ExperimentScale`` (see DESIGN.md). Heavier
workloads use smaller factors so the whole suite stays laptop-sized;
``REPRO_BENCH_SCALE`` overrides the default of each experiment.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, Optional

import pytest

from repro.analysis.summary import comparison_table, format_table
from repro.core.results import BenchmarkResult
from repro.core.runner import run_trace
from repro.sweep import CellOptions, ResultCache, SweepCell, cell_key, cell_key_fields
from repro.workloads.traces import Trace

ALL_CHAINS = ("algorand", "avalanche", "diem", "ethereum", "quorum", "solana")

#: configuration in which each chain performed best under 1,000 TPS (§6.3
#: deploys each chain "in the configuration it performed best"); see
#: EXPERIMENTS.md for how ties were resolved.
BEST_CONFIGURATION = {
    "algorand": "testnet",
    "avalanche": "datacenter",
    "diem": "datacenter",
    "ethereum": "datacenter",
    "quorum": "datacenter",
    "solana": "community",
}


def bench_scale(default: float) -> float:
    """Experiment scale for a benchmark, overridable via the environment."""
    return float(os.environ.get("REPRO_BENCH_SCALE", default))


#: sweep result cache shared by every benchmark module. Runs land in
#: ``.repro-cache/benchmarks`` keyed by (chain, deployment, parsed spec,
#: seed, scale, code version) — re-running the suite with unchanged
#: sources replays instantly; editing anything under ``src/repro``
#: invalidates every entry. ``REPRO_BENCH_CACHE=0`` disables, any other
#: value relocates the directory.
def _build_cache() -> Optional[ResultCache]:
    setting = os.environ.get("REPRO_BENCH_CACHE", "")
    if setting == "0":
        return None
    if setting:
        return ResultCache(setting)
    return ResultCache(Path(__file__).parent.parent
                       / ".repro-cache" / "benchmarks")


_RESULT_CACHE = _build_cache()


@pytest.fixture(scope="session")
def sweep_cache() -> Optional[ResultCache]:
    """The on-disk result cache the whole benchmark session shares."""
    return _RESULT_CACHE


def run_chain_trace(chain: str, configuration: str, trace: Trace,
                    scale: float, seed: int = 1, accounts: int = 2_000,
                    drain: float = 240.0) -> BenchmarkResult:
    """One benchmark run with the suite's defaults, through the cache."""
    if _RESULT_CACHE is None:
        return run_trace(chain, configuration, trace, accounts=accounts,
                         scale=scale, seed=seed, drain=drain)
    from repro.sim.deployment import get_configuration
    cell = SweepCell(index=0, chain=chain,
                     configuration=get_configuration(configuration),
                     workload=trace.name, trace=trace, seed=seed,
                     scale=scale,
                     options=CellOptions(accounts=accounts, drain=drain))
    key = cell_key(cell)
    cached = _RESULT_CACHE.get(key)
    if cached is not None:
        return BenchmarkResult.from_json(cached.read())
    result = run_trace(chain, configuration, trace, accounts=accounts,
                       scale=scale, seed=seed, drain=drain)
    _RESULT_CACHE.put(key, cell_key_fields(cell), result.to_json())
    return result


def print_figure(title: str, results: Dict[str, BenchmarkResult]) -> None:
    """Print a figure's rows the way the paper reports them."""
    print(f"\n=== {title} ===")
    rows = comparison_table(results)
    print(format_table(rows))


@pytest.fixture(scope="session")
def results_cache() -> Dict[str, BenchmarkResult]:
    """Session-wide cache so related benchmarks can share expensive runs."""
    return {}
