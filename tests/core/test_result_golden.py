"""Golden bytes: ``BenchmarkResult.to_json()`` of pinned tiny runs.

``result_golden.json`` holds the sha256 of the result JSON of six chains
x eight scenarios (native transfer, one DApp trace, a population with a
tracked cohort, a fault schedule, a ``fees:`` section, the Uber
``checkDistance`` trace, a Byzantine schedule, a fee-bidding DoS
adversary on a saturated pool), of a 10x overload on the four chains
whose overload responses differ, and of four traced runs, whose digest
also covers the tracer's events and spans. Any change to the simulation,
to the result encoding or to what a tracer records moves a digest; a
change that means to keep behaviour must leave every one of them alone.
Every document produced here is also read back through
``BenchmarkResult.summary_from_json``, which must return the summary a
full parse returns.

Regenerate (only when a behaviour change is intended) with::

    PYTHONPATH=src python tests/core/test_result_golden.py
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

import pytest

from repro.core.primary import Primary
from repro.core.results import BenchmarkResult
from repro.core.runner import run_benchmark, run_trace
from repro.core.spec import (
    AccountSample,
    LoadSchedule,
    TransferSpec,
    WorkloadSpec,
    simple_population_spec,
    simple_spec,
)
from repro.econ.fees import FeeSpec
from repro.obs import LifecycleTracer, ObservabilityOptions
from repro.sim.byzantine import Silence
from repro.sim.dos import AdversarySpec
from repro.sim.faults import events_from_dicts
from repro.workloads import workload_registry

GOLDEN = Path(__file__).with_name("result_golden.json")

SIX_CHAINS = ("algorand", "avalanche", "diem", "ethereum", "quorum",
              "solana")

TRANSFER = TransferSpec(AccountSample(50))
RUN = dict(scale=0.1, seed=7, drain=30)


def _transfer_spec() -> WorkloadSpec:
    return simple_spec(TRANSFER, LoadSchedule.constant(400, 5))


def _transfer(chain: str) -> BenchmarkResult:
    return run_benchmark(chain, "testnet", _transfer_spec(),
                         "golden-transfer", **RUN)


def _dapp(chain: str) -> BenchmarkResult:
    return run_trace(chain, "testnet", workload_registry()["dapp-gaming"],
                     accounts=50, scale=0.002, seed=7, drain=30)


def _population_spec() -> WorkloadSpec:
    return simple_population_spec(
        users=20_000, interaction=TRANSFER, rate_per_user=0.2,
        duration=5, cohort=2_000)


def _population(chain: str) -> BenchmarkResult:
    return run_benchmark(chain, "testnet", _population_spec(),
                         "golden-population", **RUN)


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


def _dos_spec() -> WorkloadSpec:
    # 3000 + 2000 TPS saturates every pool that has a cap: honest
    # transfers are outbid, bump their fee and retry, and on solana the
    # attacker's bids evict residents, which retry through the same path
    return simple_spec(TRANSFER, LoadSchedule.constant(3000, 5),
                       fees=FeeSpec(),
                       adversary=AdversarySpec(budget=10 ** 9, rate=2000))


@functools.cache
def _dos(chain: str) -> BenchmarkResult:
    return run_benchmark(chain, "testnet", _dos_spec(), "golden-dos", **RUN)


OVERLOAD_RUN = dict(scale=0.02, seed=7, drain=120)


def _overload_spec() -> WorkloadSpec:
    # the paper's 10x overload (section 6.3), as tests/blockchains/
    # test_overload.py runs it
    return simple_spec(TransferSpec(AccountSample(500)),
                       LoadSchedule.constant(10_000, 60))


def _overload(chain: str) -> BenchmarkResult:
    return run_benchmark(chain, "testnet", _overload_spec(),
                         "golden-overload", **OVERLOAD_RUN)


SCENARIOS: Dict[str, Callable[[str], BenchmarkResult]] = {
    "transfer": _transfer,
    "dapp": _dapp,
    "population": _population,
    "faults": _faults,
    "fees": _fees,
    "mobility": _mobility,
    "byzantine": _byzantine,
    "dos": _dos,
}

#: the optional summary sections a scenario is there to produce
SUMMARY_SECTIONS = {
    "population": ("population",),
    "faults": ("fault_events", "degradation"),
    "fees": ("economics",),
    "byzantine": ("fault_events",),
    "dos": ("economics",),
}

#: overload response per chain: oom_crash, commit_stall, shed_load twice
OVERLOAD_CHAINS = ("solana", "diem", "ethereum", "algorand")
SHEDDING_CHAINS = ("ethereum", "algorand")


#: cell -> (spec, run arguments): a clean run, fee-bump retries with
#: evictions and drops, shed-load rejections, the aggregate lane
TRACED: Dict[str, Tuple[Callable[[], WorkloadSpec], Dict]] = {
    "diem/traced-transfer": (_transfer_spec, RUN),
    "solana/traced-dos": (_dos_spec, RUN),
    "ethereum/traced-overload": (_overload_spec, OVERLOAD_RUN),
    "algorand/traced-population": (_population_spec, RUN),
}


@functools.cache
def _traced(cell: str, trace: bool
            ) -> Tuple[BenchmarkResult, Optional[LifecycleTracer]]:
    spec, run = TRACED[cell]
    primary = Primary(cell.split("/")[0], "testnet", scale=run["scale"],
                      seed=run["seed"],
                      observe=ObservabilityOptions(trace=True)
                      if trace else None)
    result = primary.run(spec(), "golden-traced", drain=run["drain"])
    return result, primary.tracer


def _digest(result: BenchmarkResult) -> str:
    return hashlib.sha256(result.to_json().encode()).hexdigest()


def _assert_summary_reads_back(result: BenchmarkResult, *sections: str
                               ) -> None:
    text = result.to_json()
    summary = BenchmarkResult.summary_from_json(text)
    assert all(summary[section] for section in sections)
    # compared as text: a run that commits nothing has NaN latencies
    assert json.dumps(summary) == json.dumps(json.loads(text)["summary"])


def _traced_digest(result: BenchmarkResult, tracer: LifecycleTracer) -> str:
    trace = json.dumps({"events": tracer.events,
                        "spans": [span.to_dict() for span in tracer.spans]})
    return hashlib.sha256(
        (trace + result.to_json()).encode()).hexdigest()


@pytest.fixture(scope="module")
def golden() -> Dict[str, str]:
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_cell(golden):
    assert sorted(golden) == sorted(
        [f"{chain}/{scenario}"
         for chain in SIX_CHAINS for scenario in SCENARIOS]
        + [f"{chain}/overload" for chain in OVERLOAD_CHAINS]
        + list(TRACED))


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("chain", SIX_CHAINS)
def test_result_bytes_match_golden(chain, scenario, golden):
    result = SCENARIOS[scenario](chain)
    assert result.records, "a golden run with no records proves nothing"
    assert _digest(result) == golden[f"{chain}/{scenario}"]
    _assert_summary_reads_back(result, *SUMMARY_SECTIONS.get(scenario, ()))


@pytest.mark.slow
@pytest.mark.parametrize("hashseed", ["1", "12345"])
def test_bytes_do_not_depend_on_the_hash_seed(hashseed, golden):
    """docs/ARCHITECTURE.md says ``PYTHONHASHSEED`` does not matter. The
    fee market and its retries keep dict- and set-shaped state, and so do
    the message-level replicas (string-keyed votes) and the event
    calendar (the cancelled set), so a run under another hash seed is
    where an iteration-order leak would show."""
    root = Path(__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), str(root), os.environ.get("PYTHONPATH", "")]))
    code = ("from tests.core.test_result_golden import _digest, _fees;"
            " from tests.consensus import test_message_golden as message;"
            " print(_digest(_fees('ethereum')));"
            " print(message._digest(message._faulted('ibft')))")
    run = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                         capture_output=True, text=True, check=True)
    message_golden = json.loads(
        (root / "tests" / "consensus" / "message_golden.json").read_text())
    assert run.stdout.split() == [golden["ethereum/fees"],
                                  message_golden["ibft/faults"]]


def test_dos_scenario_retries():
    # the scenario exists to pin the retry path: it must not decay into
    # a quiet one
    retrying = [chain for chain in SIX_CHAINS
                if _dos(chain).chain_stats["retries_scheduled"] > 0]
    assert len(retrying) >= 2


@pytest.mark.parametrize("chain", OVERLOAD_CHAINS)
def test_overload_bytes_match_golden(chain, golden):
    result = _overload(chain)
    assert result.overload_events
    if chain in SHEDDING_CHAINS:
        assert result.chain_stats["admission_shed_rejections"] > 0
    assert _digest(result) == golden[f"{chain}/overload"]
    _assert_summary_reads_back(result, "overload_events")


@pytest.mark.parametrize("cell", TRACED)
def test_traced_bytes_match_golden(cell, golden):
    """Tracing on emits the pinned trace and changes nothing else."""
    result, tracer = _traced(cell, True)
    assert _traced_digest(result, tracer) == golden[cell]
    assert result.timeseries
    _assert_summary_reads_back(result, "timeseries")
    assert (replace(result, timeseries=[]).to_json()
            == _traced(cell, False)[0].to_json())


def test_traced_cells_reach_every_admission_outcome():
    kinds = {
        cell: {(event["kind"], event.get("will_retry"))
               for event in _traced(cell, True)[1].events}
        for cell in TRACED}
    assert ("rejected", True) in kinds["solana/traced-dos"]
    assert ("rejected", False) in kinds["solana/traced-dos"]
    assert ("rejected", False) in kinds["ethereum/traced-overload"]
    assert all(("admitted", None) in seen for seen in kinds.values())


if __name__ == "__main__":
    digests = {f"{chain}/{scenario}": _digest(run(chain))
               for chain in SIX_CHAINS for scenario, run in SCENARIOS.items()}
    digests.update({f"{chain}/overload": _digest(_overload(chain))
                    for chain in OVERLOAD_CHAINS})
    digests.update({cell: _traced_digest(*_traced(cell, True))
                    for cell in TRACED})
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
