"""Golden bytes: ``BenchmarkResult.to_json()`` of pinned tiny runs.

``result_golden.json`` holds the sha256 of the result JSON of six chains
x seven scenarios (native transfer, one DApp trace, a population with a
tracked cohort, a fault schedule, a ``fees:`` section, the Uber
``checkDistance`` trace, a Byzantine schedule). Any change to the
simulation or to the result encoding moves a digest; a change that means
to keep behaviour must leave every one of them alone.

Regenerate (only when a behaviour change is intended) with::

    PYTHONPATH=src python tests/core/test_result_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Callable, Dict

import pytest

from repro.core.results import BenchmarkResult
from repro.core.runner import run_benchmark, run_trace
from repro.core.spec import (
    AccountSample,
    LoadSchedule,
    TransferSpec,
    simple_population_spec,
    simple_spec,
)
from repro.econ.fees import FeeSpec
from repro.sim.byzantine import Silence
from repro.sim.faults import events_from_dicts
from repro.workloads import workload_registry

GOLDEN = Path(__file__).with_name("result_golden.json")

SIX_CHAINS = ("algorand", "avalanche", "diem", "ethereum", "quorum",
              "solana")

TRANSFER = TransferSpec(AccountSample(50))
RUN = dict(scale=0.1, seed=7, drain=30)


def _transfer(chain: str) -> BenchmarkResult:
    spec = simple_spec(TRANSFER, LoadSchedule.constant(400, 5))
    return run_benchmark(chain, "testnet", spec, "golden-transfer", **RUN)


def _dapp(chain: str) -> BenchmarkResult:
    return run_trace(chain, "testnet", workload_registry()["dapp-gaming"],
                     accounts=50, scale=0.002, seed=7, drain=30)


def _population(chain: str) -> BenchmarkResult:
    spec = simple_population_spec(
        users=20_000, interaction=TRANSFER, rate_per_user=0.2,
        duration=5, cohort=2_000)
    return run_benchmark(chain, "testnet", spec, "golden-population", **RUN)


def _faults(chain: str) -> BenchmarkResult:
    faults = events_from_dicts(
        [{"at": 2, "kind": "crash", "node": node} for node in range(4)]
        + [{"at": 4, "kind": "recover", "node": node} for node in range(4)])
    spec = simple_spec(TRANSFER, LoadSchedule.constant(400, 6), faults=faults)
    return run_benchmark(chain, "testnet", spec, "golden-faults", **RUN)


def _fees(chain: str) -> BenchmarkResult:
    spec = simple_spec(TRANSFER, LoadSchedule.constant(400, 5),
                       fees=FeeSpec())
    return run_benchmark(chain, "testnet", spec, "golden-fees", **RUN)


def _mobility(chain: str) -> BenchmarkResult:
    # the three geth-EVM chains execute the scan; diem, solana and
    # algorand (which deploys the single-driver flavour) abort every
    # call on their hard budget
    return run_trace(chain, "testnet", workload_registry()["dapp-mobility"],
                     accounts=50, scale=0.002, seed=7, drain=30)


def _byzantine(chain: str) -> BenchmarkResult:
    # testnet has 10 validators: 2/10 silent stays below every tolerance
    # (1/3, clique 1/2) and stretches the rounds; 5/10 is at or above
    # every tolerance and fails the rounds inside its window. The first
    # window spans a 5 s clique period and the second outlasts a 10 s
    # IBFT round timeout, so every chain seals inside both.
    byzantine = (
        tuple(Silence(0.5, 5.5, node) for node in range(2))
        + tuple(Silence(5.5, 20.0, node) for node in range(5)))
    spec = simple_spec(TRANSFER, LoadSchedule.constant(400, 6),
                       byzantine=byzantine)
    return run_benchmark(chain, "testnet", spec, "golden-byzantine", **RUN)


SCENARIOS: Dict[str, Callable[[str], BenchmarkResult]] = {
    "transfer": _transfer,
    "dapp": _dapp,
    "population": _population,
    "faults": _faults,
    "fees": _fees,
    "mobility": _mobility,
    "byzantine": _byzantine,
}


def _digest(result: BenchmarkResult) -> str:
    return hashlib.sha256(result.to_json().encode()).hexdigest()


@pytest.fixture(scope="module")
def golden() -> Dict[str, str]:
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_cell(golden):
    assert sorted(golden) == sorted(
        f"{chain}/{scenario}"
        for chain in SIX_CHAINS for scenario in SCENARIOS)


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("chain", SIX_CHAINS)
def test_result_bytes_match_golden(chain, scenario, golden):
    result = SCENARIOS[scenario](chain)
    assert result.records, "a golden run with no records proves nothing"
    assert _digest(result) == golden[f"{chain}/{scenario}"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {f"{chain}/{scenario}": _digest(run(chain))
         for chain in SIX_CHAINS for scenario, run in SCENARIOS.items()},
        indent=1, sort_keys=True) + "\n")
