"""Sweep execution: isolation, determinism, caching, edge cases."""

from __future__ import annotations

import pytest

from repro.core.spec import LoadSchedule
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
        lambda body: body[:len(body) // 2],             # JSONDecodeError
        lambda body: '{"transactions": []}',            # KeyError
        lambda body: "[]",                              # TypeError
    ], ids=["truncated", "no-summary", "not-an-object"])
    def test_hit_that_is_not_a_result_reruns_the_cell(
            self, tmp_path, monkeypatch, damage):
        """A sweep never dies: an unparseable hit is a miss, then healed."""
        monkeypatch.setenv("REPRO_CODE_VERSION", "pinned")
        cache = ResultCache(tmp_path)
        spec = SweepSpec(chains=("quorum", "solana"), seeds=(1,), **FAST)
        first = run_sweep(spec, cache=cache)
        quorum = first.outcomes[0]
        key = cell_key(quorum.cell)
        cache.put(key, cell_key_fields(quorum.cell),
                  damage(quorum.result_json))
        second = run_sweep(spec, cache=cache)
        assert [o.cached for o in second.outcomes] == [False, True]
        assert second.outcomes[0].result_json == quorum.result_json
        assert second.metrics["sweep.cache.corrupt"] == 1
        assert second.metrics["sweep.cache.hits"] == 1
        assert cache.get(key) == quorum.result_json     # overwritten
        third = run_sweep(spec, cache=cache)
        assert (third.cache_hits, third.metrics["sweep.cache.corrupt"]) == \
            (2, 0)

    def test_progress_events_stream_in_lifecycle_order(self):
        spec = SweepSpec(chains=("quorum",), seeds=(1,), **FAST)
        kinds = []
        run_sweep(spec, progress=lambda e: kinds.append(e.kind))
        assert kinds == ["queued", "running", "done"]
