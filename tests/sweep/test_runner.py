"""Sweep execution: isolation, determinism, caching, edge cases."""

from __future__ import annotations

import json
import re

import pytest

from repro.core.results import BenchmarkResult
from repro.core.spec import LoadSchedule
from repro.obs import sweep_report
from repro.sweep import (
    CellOptions,
    ResultCache,
    SweepSpec,
    cell_key,
    cell_key_fields,
    run_sweep,
)
from repro.workloads.traces import Trace

FAST = dict(configurations=("testnet",), workloads=("native-100",),
            scales=(0.05,))


def crashing_trace() -> Trace:
    """A trace whose run raises: it invokes a DApp that does not exist."""
    return Trace(name="crashes", dapp="no-such-dapp", function="f",
                 schedule=LoadSchedule.constant(10, 5))


def _without_cache_column(report):
    return [re.sub(r"\s+\S+\s*$", "", line) for line in report.splitlines()
            if not line.startswith("cells:")]


def _damaged_entry_heals(tmp_path, monkeypatch, damage):
    """One of two cached cells is damaged: it alone re-runs, is counted
    once as corrupt, and the entry it leaves is a hit again."""
    monkeypatch.setenv("REPRO_CODE_VERSION", "pinned")
    cache = ResultCache(tmp_path)
    spec = SweepSpec(chains=("quorum", "solana"), seeds=(1,), **FAST)
    first = run_sweep(spec, cache=cache)
    quorum = first.outcomes[0]
    damage(cache, quorum.cell)
    second = run_sweep(spec, cache=cache)
    assert [o.cached for o in second.outcomes] == [False, True]
    assert second.outcomes[0].result_json == quorum.result_json
    assert second.metrics["sweep.cache.corrupt"] == 1
    assert second.metrics["sweep.cache.hits"] == 1
    assert second.metrics["sweep.cache.misses"] == 1
    assert cache.get(cell_key(quorum.cell)) == quorum.result_json
    third = run_sweep(spec, cache=cache)
    assert (third.cache_hits, third.metrics["sweep.cache.corrupt"]) == (2, 0)


class TestEdgeCases:
    def test_empty_sweep(self):
        spec = SweepSpec(chains=(), configurations=(), workloads=())
        sweep = run_sweep(spec)
        assert sweep.outcomes == []
        assert sweep.cache_hits == 0
        assert "cells: 0" in sweep.summary_line()

    def test_single_cell(self):
        spec = SweepSpec(chains=("quorum",), seeds=(1,), **FAST)
        sweep = run_sweep(spec)
        (outcome,) = sweep.outcomes
        assert outcome.status == "done"
        assert not outcome.cached
        assert outcome.result.commit_ratio > 0.9

    def test_invalid_worker_count(self):
        spec = SweepSpec(chains=("quorum",), **FAST)
        with pytest.raises(ValueError, match="workers"):
            run_sweep(spec, workers=0)


class TestFailureIsolation:
    def test_crashed_cell_does_not_kill_the_sweep(self):
        spec = SweepSpec(chains=("quorum",),
                         configurations=("testnet",),
                         workloads=(crashing_trace(), "native-100"),
                         seeds=(1,), scales=(0.05,))
        sweep = run_sweep(spec)
        crashed, healthy = sweep.outcomes
        assert crashed.status == "failed"
        assert crashed.failure.kind == "crash"
        assert crashed.result_json is None
        assert crashed.failure.traceback_text  # preserved for debugging
        assert healthy.status == "done"
        assert healthy.result.commit_ratio > 0.9

    def test_crashed_cell_in_worker_pool(self):
        spec = SweepSpec(chains=("quorum",),
                         configurations=("testnet",),
                         workloads=(crashing_trace(), "native-100"),
                         seeds=(1,), scales=(0.05,))
        sweep = run_sweep(spec, workers=2)
        crashed, healthy = sweep.outcomes
        assert crashed.failure.kind == "crash"
        assert healthy.status == "done"

    def test_deadline_failed_cell_is_typed_watchdog_failure(self):
        spec = SweepSpec(
            chains=("quorum",), seeds=(1,),
            options=CellOptions(max_sim_seconds=5.0), **FAST)
        (outcome,) = run_sweep(spec).outcomes
        assert outcome.status == "failed"
        assert outcome.failure.kind == "watchdog"
        assert outcome.result is not None          # data is preserved
        assert outcome.result.status == "failed"

    def test_crashes_are_never_cached(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CODE_VERSION", "pinned")
        cache = ResultCache(tmp_path)
        spec = SweepSpec(chains=("quorum",), configurations=("testnet",),
                         workloads=(crashing_trace(),), scales=(0.05,))
        run_sweep(spec, cache=cache)
        assert cache.entries() == 0
        # a failed-status run, by contrast, is a deterministic outcome
        spec = SweepSpec(chains=("quorum",), seeds=(1,),
                         options=CellOptions(max_sim_seconds=5.0), **FAST)
        run_sweep(spec, cache=cache)
        assert cache.entries() == 1
        (replay,) = run_sweep(spec, cache=cache).outcomes
        assert replay.cached and replay.status == "failed"


class TestDeterminism:
    def test_workers_1_vs_4_byte_identical(self):
        spec = SweepSpec(chains=("quorum", "diem"), seeds=(1, 2), **FAST)
        serial = run_sweep(spec, workers=1)
        parallel = run_sweep(spec, workers=4)
        assert len(serial.outcomes) == 4
        for one, many in zip(serial.outcomes, parallel.outcomes):
            assert one.cell.label == many.cell.label
            assert one.result_json == many.result_json

    def test_fee_market_trace_workers_1_vs_4_byte_identical(self):
        """An attacked, fee-priced workload is as reproducible as a benign
        one: the adversary draws no randomness and fee arithmetic is all
        integers, so worker count cannot change a byte of the output."""
        from repro.econ.fees import FeeSpec
        from repro.sim.dos import AdversarySpec
        trace = Trace(name="dos-native", dapp=None, function="transfer",
                      schedule=LoadSchedule.constant(100, 10),
                      fees=FeeSpec(),
                      adversary=AdversarySpec(budget=5_000_000, rate=500))
        spec = SweepSpec(chains=("ethereum", "algorand"), seeds=(1,),
                         configurations=("testnet",), workloads=(trace,),
                         scales=(0.05,))
        serial = run_sweep(spec, workers=1)
        parallel = run_sweep(spec, workers=4)
        assert len(serial.outcomes) == 2
        for one, many in zip(serial.outcomes, parallel.outcomes):
            assert one.cell.label == many.cell.label
            assert one.result_json == many.result_json
            adversary = one.result.economics["adversary"]
            assert 0 < adversary["spend"] <= adversary["budget"]

    def test_outcome_order_is_cell_order_under_pool(self):
        spec = SweepSpec(chains=("solana", "quorum", "diem"), seeds=(1,),
                         **FAST)
        sweep = run_sweep(spec, workers=3)
        assert [o.cell.chain for o in sweep.outcomes] == \
            ["solana", "quorum", "diem"]
        assert [o.cell.index for o in sweep.outcomes] == [0, 1, 2]


class TestCaching:
    def test_second_run_hits_everything(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CODE_VERSION", "pinned")
        cache = ResultCache(tmp_path)
        spec = SweepSpec(chains=("quorum", "solana"), seeds=(1,), **FAST)
        first = run_sweep(spec, cache=cache)
        assert (first.cache_hits, first.cache_misses) == (0, 2)
        second = run_sweep(spec, cache=cache)
        assert (second.cache_hits, second.cache_misses) == (2, 0)
        for fresh, replayed in zip(first.outcomes, second.outcomes):
            assert fresh.result_json == replayed.result_json
        assert second.metrics["sweep.cache.hits"] == 2

    def test_code_change_invalidates(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CODE_VERSION", "v1")
        cache = ResultCache(tmp_path)
        spec = SweepSpec(chains=("quorum",), seeds=(1,), **FAST)
        run_sweep(spec, cache=cache)
        monkeypatch.setenv("REPRO_CODE_VERSION", "v2")
        sweep = run_sweep(spec, cache=cache)
        assert sweep.cache_misses == 1

    @pytest.mark.parametrize("damage", [
        lambda header, body: header + b"\n" + body[:len(body) // 2],
        lambda header, body: header + b'\n{"transactions": []}',
        lambda header, body: header + b"\n[]",
        lambda header, body: (header + b"\n" + body[:100]
                              + bytes([body[100] ^ 1]) + body[101:]),
        lambda header, body: json.dumps(
            {name: value for name, value in json.loads(header).items()
             if name != "sha256"}).encode() + b"\n" + body,
    ], ids=["truncated", "no-summary", "not-an-object", "flipped-byte",
            "v2-entry"])
    def test_hit_that_is_not_a_result_reruns_the_cell(
            self, tmp_path, monkeypatch, damage):
        """A sweep never dies: a damaged entry is a miss, then healed."""
        def on_disk(cache, cell):
            path = tmp_path / cell_key(cell)[:2] / f"{cell_key(cell)}.json"
            path.write_bytes(damage(*path.read_bytes().split(b"\n", 1)))
        _damaged_entry_heals(tmp_path, monkeypatch, on_disk)

    @pytest.mark.parametrize("body", [
        "[]", '{"transactions": []}', '{"summary": {}, "transactions": []}'])
    def test_stored_text_that_is_not_a_result_reruns_the_cell(
            self, tmp_path, monkeypatch, body):
        """The digest says the bytes are the ones stored, not what they
        are: a body that verifies still has to read as a result."""
        _damaged_entry_heals(
            tmp_path, monkeypatch, lambda cache, cell:
            cache.put(cell_key(cell), cell_key_fields(cell), body))

    def test_warm_sweep_parses_no_record(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CODE_VERSION", "pinned")
        cache = ResultCache(tmp_path)
        spec = SweepSpec(chains=("quorum", "solana"), seeds=(1,), **FAST)
        cold = run_sweep(spec, cache=cache)

        def from_json(text):
            raise AssertionError("a replay parsed a result's records")

        with monkeypatch.context() as patched:
            patched.setattr(BenchmarkResult, "from_json",
                            staticmethod(from_json))
            warm = run_sweep(spec, cache=cache)
            report = sweep_report(warm)
        assert warm.cache_hits == 2
        # a replay prints what the run printed, cache column aside
        assert _without_cache_column(report) == \
            _without_cache_column(sweep_report(cold))
        for fresh, replayed in zip(cold.outcomes, warm.outcomes):
            assert replayed.summary == fresh.summary
            assert replayed.result == fresh.result      # parsed on demand

    def test_replayed_failed_cell_reports_what_the_run_reported(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CODE_VERSION", "pinned")
        cache = ResultCache(tmp_path)
        spec = SweepSpec(chains=("quorum",), seeds=(1,),
                         options=CellOptions(max_sim_seconds=5.0), **FAST)
        events = []
        reports = [sweep_report(run_sweep(spec, cache=cache,
                                          progress=events.append))
                   for _ in ("cold", "warm")]
        fresh, replayed = ([line for line in report.splitlines()
                            if line.startswith("failed: ")]
                           for report in reports)
        assert len(fresh) == 1 and "commit_ratio=0." in fresh[0]
        assert replayed == fresh
        fresh_event, replayed_event = (e for e in events if e.kind == "failed")
        assert (fresh_event.cached, replayed_event.cached) == (False, True)
        assert fresh_event.detail.removeprefix("cache miss") == \
            replayed_event.detail.removeprefix("cache hit")

    def test_progress_events_stream_in_lifecycle_order(self):
        spec = SweepSpec(chains=("quorum",), seeds=(1,), **FAST)
        kinds = []
        run_sweep(spec, progress=lambda e: kinds.append(e.kind))
        assert kinds == ["queued", "running", "done"]
