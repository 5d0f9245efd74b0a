"""Tests for benchmark results aggregation."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.results import BenchmarkResult, RecordTable, TransactionRecord
from repro.chain.transaction import transfer


def record(uid, submit, commit=None, aborted=False, reason=None):
    return TransactionRecord(
        uid=uid, kind="transfer", contract=None, function=None,
        client="c", submitted_at=submit, committed_at=commit,
        aborted=aborted, abort_reason=reason)


def make_result(records, duration=10.0, scale=1.0):
    return BenchmarkResult("quorum", "testnet", "w", duration, scale,
                           records=RecordTable(records))


class TestAggregates:
    def test_average_load(self):
        result = make_result([record(i, i * 0.1) for i in range(100)])
        assert result.average_load == pytest.approx(10.0)

    def test_average_throughput_counts_in_window_only(self):
        records = [record(0, 0.0, commit=5.0),
                   record(1, 1.0, commit=9.0),
                   record(2, 2.0, commit=15.0)]  # after the 10 s window
        result = make_result(records)
        assert result.average_throughput == pytest.approx(2 / 10.0)

    def test_scale_unscaling(self):
        result = make_result([record(i, 0.5, commit=1.0) for i in range(10)],
                             scale=0.1)
        assert result.average_throughput == pytest.approx(10 / 10.0 / 0.1)

    def test_commit_ratio_counts_all_commits(self):
        records = [record(0, 0.0, commit=5.0),
                   record(1, 0.0, commit=50.0),   # late but committed
                   record(2, 0.0, aborted=True, reason="expired"),
                   record(3, 0.0)]                # still pending
        result = make_result(records)
        assert result.commit_ratio == pytest.approx(0.5)

    def test_latency_statistics(self):
        records = [record(0, 0.0, commit=1.0), record(1, 0.0, commit=3.0)]
        result = make_result(records)
        assert result.average_latency == pytest.approx(2.0)
        assert result.summary()["median_latency_s"] == pytest.approx(2.0)

    def test_latency_of_aborted_is_none(self):
        rec = record(0, 0.0, aborted=True)
        assert rec.latency is None
        assert not rec.committed


class TestSeries:
    def test_throughput_series_bins_commits(self):
        records = [record(i, 0.0, commit=0.5) for i in range(4)]
        records += [record(10 + i, 0.0, commit=3.5) for i in range(2)]
        result = make_result(records, duration=5.0)
        times, tput = result.throughput_series(bin_size=1.0)
        assert tput[0] == 4.0
        assert tput[3] == 2.0

    def test_load_series_bins_submissions(self):
        records = [record(i, 2.2) for i in range(5)]
        result = make_result(records, duration=5.0)
        _, load = result.load_series(bin_size=1.0)
        assert load[2] == 5.0

    def test_latency_cdf_plateaus_below_one_on_drops(self):
        # the Fig. 6 presentation: drops keep the CDF below 1.0
        records = [record(i, 0.0, commit=float(i + 1)) for i in range(6)]
        records += [record(10 + i, 0.0, aborted=True) for i in range(4)]
        result = make_result(records, duration=20.0)
        latencies, fractions = result.latency_cdf()
        assert fractions[-1] == pytest.approx(0.6)
        assert list(latencies) == sorted(latencies)


class TestAborts:
    def test_abort_reasons_counted(self):
        records = [record(0, 0.0, aborted=True, reason="expired"),
                   record(1, 0.0, aborted=True, reason="expired"),
                   record(2, 0.0, aborted=True, reason="budget_exceeded")]
        result = make_result(records)
        assert result.abort_reasons() == {"expired": 2, "budget_exceeded": 1}

    def test_execution_failed_requires_budget_errors_and_no_commits(self):
        failed = make_result([record(0, 0.0, aborted=True,
                                     reason="budget_exceeded")])
        assert failed.execution_failed()
        mixed = make_result([record(0, 0.0, aborted=True,
                                    reason="budget_exceeded"),
                             record(1, 0.0, commit=1.0)])
        assert not mixed.execution_failed()
        healthy = make_result([record(0, 0.0, commit=1.0)])
        assert not healthy.execution_failed()


class TestSerialization:
    def test_json_roundtrip(self):
        records = [record(0, 0.0, commit=1.0),
                   record(1, 0.5, aborted=True, reason="expired")]
        result = make_result(records)
        clone = BenchmarkResult.from_json(result.to_json())
        assert clone.chain == result.chain
        assert clone.summary() == result.summary()
        assert len(clone.records) == 2

    @pytest.mark.parametrize("records", [
        [record(0, 0.0, commit=1.0),
         record(1, 0.5, aborted=True, reason='", "transactions": [')],
        [record(0, 0.0, aborted=True, reason="expired")],   # NaN latencies
        [],                                                 # None latencies
    ], ids=["committed", "nothing-committed", "nothing-submitted"])
    def test_summary_from_json_is_the_summary_of_a_full_parse(self, records):
        text = make_result(records).to_json()
        summary = BenchmarkResult.summary_from_json(text)
        # compared as text: NaN is not equal to itself
        assert json.dumps(summary) == json.dumps(json.loads(text)["summary"])

    def test_summary_from_json_refuses_what_is_not_a_result(self):
        text = make_result([record(0, 0.0, commit=1.0)]).to_json()
        for not_a_result in ("", "[]", '{"transactions": []}',
                             '{"summary": []' + text[text.index(', "tr'):],
                             text[:40], text[:-1], text[:-2] + "}"):
            with pytest.raises(ValueError):
                BenchmarkResult.summary_from_json(not_a_result)

    def test_from_transaction(self):
        tx = transfer("a", "b")
        tx.submitted_at = 1.0
        tx.committed_at = 3.0
        rec = TransactionRecord.from_transaction(tx, client="c7")
        assert rec.committed
        assert rec.latency == pytest.approx(2.0)
        assert rec.client == "c7"
        # the same record, of the same type, as the class call builds
        assert type(rec) is TransactionRecord
        assert rec == TransactionRecord(
            tx.uid, "transfer", None, None, "c7", 1.0, 3.0, False, None, 0)

    def test_from_aborted_transaction(self):
        tx = transfer("a", "b")
        tx.submitted_at = 1.0
        tx.aborted = True
        tx.abort_reason = "expired"
        rec = TransactionRecord.from_transaction(tx)
        assert not rec.committed
        assert rec.abort_reason == "expired"

    def test_summary_keys(self):
        result = make_result([record(0, 0.0, commit=1.0)])
        summary = result.summary()
        for key in ("chain", "configuration", "workload",
                    "average_load_tps", "average_throughput_tps",
                    "average_latency_s", "commit_ratio"):
            assert key in summary
