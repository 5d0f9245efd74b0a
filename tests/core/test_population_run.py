"""End-to-end contracts of population runs.

* cohort-only byte-identity — a population whose cohort covers every
  user is the classic client path, byte for byte (the cohort carries the
  per-user schedule verbatim, so no float scaling round-trips);
* aggregate-lane sanity — a million-user run completes within watchdog
  bounds, reports per-lane arrivals, and renders the population block;
* determinism — same seed, same JSON; different seed, different draws.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.summary import (
    binding_subsystem,
    knee_table,
    population_report,
)
from repro.core.runner import run_benchmark
from repro.core.spec import (
    AccountSample,
    LoadSchedule,
    TransferSpec,
    simple_population_spec,
    simple_spec,
)

INTERACTION = TransferSpec(AccountSample(100))
#: 1 000 000 users x 0.002 TPS x 20 s, cohort 1 000
MILLION = (Path(__file__).resolve().parents[2] / "examples" / "specs"
           / "population.yaml").read_text()
FAST = dict(scale=0.5, seed=3, drain=120.0)


def classic_run(chain: str):
    spec = simple_spec(INTERACTION, LoadSchedule.constant(2.0, 20.0),
                       clients=8)
    return run_benchmark(chain, "testnet", spec, workload_name="w", **FAST)


def cohort_only_run(chain: str):
    spec = simple_population_spec(users=8, interaction=INTERACTION,
                                  rate_per_user=2.0, duration=20.0,
                                  cohort=8)
    return run_benchmark(chain, "testnet", spec, workload_name="w", **FAST)


class TestCohortOnlyByteIdentity:
    @pytest.mark.parametrize("chain", ["ethereum", "solana"])
    def test_full_cohort_equals_classic_path(self, chain):
        classic = classic_run(chain)
        population = cohort_only_run(chain)
        assert population.records == classic.records
        classic_summary = classic.summary()
        population_summary = population.summary()
        block = population_summary.pop("population")
        # serialize for the comparison: NaN latencies are byte-equal in
        # JSON but unequal under ==
        assert json.dumps(population_summary, sort_keys=True) == \
            json.dumps(classic_summary, sort_keys=True)
        # the aggregate lane never ran: 8 users, cohort of 8
        assert block["aggregate_users"] == 0
        assert block["aggregate_lane"]["submitted"] == 0
        assert block["cohort_exact"]["submitted"] == \
            classic_summary["submitted"]
        assert "arrivals_aggregate" not in population.chain_stats

    def test_classic_json_has_no_population_key(self):
        summary = classic_run("ethereum").summary()
        assert "population" not in summary


class TestAggregateRun:
    def run_million(self, seed=1):
        return run_benchmark("ethereum", "testnet", MILLION, seed=seed,
                             scale=0.1)

    def test_million_users_within_watchdog_bounds(self):
        result = self.run_million()
        assert result.status == "ok"
        block = result.population
        assert block["users"] == 1_000_000
        assert block["cohort_size"] == 1_000
        assert block["aggregate_users"] == 999_000
        # the aggregate lane carried real traffic through admission
        assert result.chain_stats["arrivals_aggregate"] == \
            block["aggregate_lane"]["submitted"]
        assert block["aggregate_lane"]["submitted"] > 0
        assert block["population_scaled"]["offered_load_tps"] == \
            pytest.approx(2_000.0)
        # analysis helpers accept the result
        assert binding_subsystem(result) in (
            "none", "memory", "admission", "mempool", "consensus")
        report = population_report(result)
        assert "1,000,000 users" in report
        rows = knee_table({1_000_000: result})
        assert rows[0]["users"] == 1_000_000

    def test_same_seed_byte_identical(self):
        assert self.run_million().to_json() == self.run_million().to_json()

    def test_different_seed_different_arrivals(self):
        a = self.run_million(seed=1)
        b = self.run_million(seed=2)
        assert a.population["aggregate_lane"]["submitted"] != \
            b.population["aggregate_lane"]["submitted"]

    def test_population_block_survives_json_round_trip(self):
        result = self.run_million()
        restored = type(result).from_json(result.to_json())
        assert restored.population == result.population
        assert json.loads(restored.to_json()) == \
            json.loads(result.to_json())


class TestPopulationReportFallback:
    def test_classic_run_reports_not_population(self):
        assert population_report(classic_run("ethereum")) == \
            "(not a population run)"
