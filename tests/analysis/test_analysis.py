"""Tests for result analysis and CSV export."""

from __future__ import annotations

import csv
import io
from types import SimpleNamespace

import pytest

from repro.analysis.summary import (
    cdf_points,
    comparison_table,
    format_table,
    population_report,
    throughput_timeseries,
    transactions_to_csv,
)
from repro.core.population import PopulationSpec, population_block
from repro.core.results import BenchmarkResult, RecordTable, TransactionRecord
from repro.core.spec import AccountSample, LoadSchedule, TransferSpec


def record(uid, submit, commit=None, aborted=False, reason=None):
    return TransactionRecord(
        uid=uid, kind="transfer", contract=None, function=None,
        client="c", submitted_at=submit, committed_at=commit,
        aborted=aborted, abort_reason=reason)


def make_result(chain="quorum", n=10):
    return BenchmarkResult(chain, "testnet", "w", 10.0, 1.0,
                           records=RecordTable(
                               record(i, i * 0.5, commit=i * 0.5 + 1.0)
                               for i in range(n)))


class TestCsv:

    def test_transactions_csv_matches_artifact_format(self):
        text = transactions_to_csv(make_result(n=3))
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["submitted_at", "latency_s", "committed",
                           "abort_reason"]
        assert rows[1] == ["0.00", "1.00", "1", ""]

    def test_aborted_tx_row_has_reason(self):
        result = make_result(n=1)
        result.records.extend([record(99, 5.0, aborted=True,
                                      reason="expired")])
        text = transactions_to_csv(result)
        assert "expired" in text


class TestTables:
    def test_comparison_table_sorted_by_chain(self):
        table = comparison_table({"solana": make_result("solana"),
                                  "diem": make_result("diem")})
        assert [row["chain"] for row in table] == ["diem", "solana"]

    def test_format_table_renders_all_rows(self):
        table = comparison_table({"a": make_result("a")})
        text = format_table(table)
        assert "chain" in text and "a" in text
        assert text.count("\n") >= 2

    def test_format_table_empty(self):
        assert format_table([]) == "(no rows)"


class TestSeries:
    def test_timeseries_rows(self):
        rows = throughput_timeseries(make_result())
        assert rows[0].keys() == {"time", "load_tps", "throughput_tps"}
        assert sum(r["throughput_tps"] for r in rows) > 0

    def test_cdf_points_downsample(self):
        result = make_result(n=1000)
        points = cdf_points(result, max_points=50)
        assert len(points) == 50
        assert points[-1]["fraction"] == pytest.approx(1.0)

    def test_cdf_points_empty_result(self):
        empty = BenchmarkResult("q", "t", "w", 10.0, 1.0)
        assert cdf_points(empty) == []


class TestPopulationReport:
    def test_a_run_whose_commits_all_land_in_the_drain_explains_itself(self):
        # 482 commits, all after the 20 s load window: the window counts
        # none of them, and the line says which window it counts and how
        # many committed in all
        spec = PopulationSpec(users=1_000,
                              interaction=TransferSpec(AccountSample(10)),
                              load=LoadSchedule.constant(0.002, 20.0),
                              cohort=2)
        result = BenchmarkResult(
            "ethereum", "testnet", "population", 20.0, 0.1,
            records=RecordTable([record(0, 1.0, commit=25.0),
                                 record(1, 2.0)]))
        lane = [SimpleNamespace(submitted_at=t * 0.01,
                                committed_at=21.0 + t * 0.01, aborted=False)
                for t in range(481)]
        result.population = population_block(spec, result, lane, 0)
        assert result.population["population_scaled"]["throughput_tps"] == 0
        assert ("delivered throughput  0.0 TPS in the 20 s load window"
                " (482 committed overall, drain included)"
                in population_report(result).splitlines())
