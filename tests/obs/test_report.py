"""Report tests: the ``trace`` phase, round and hotspot tables and the
``sweep`` comparison table."""

from __future__ import annotations

import re

from repro.core.primary import Primary
from repro.core.spec import (
    AccountSample,
    LoadSchedule,
    TransferSpec,
    simple_spec,
)
from repro.obs import (
    EngineProfiler,
    ObservabilityOptions,
    hotspot_table,
    sweep_report,
    sweep_table,
    trace_report,
)
from repro.obs.trace import TX_PHASES
from repro.sweep import CellOptions, ResultCache, SweepSpec, run_sweep
from tests.sweep.test_runner import FAST, crashing_trace


def test_trace_report_has_phase_round_and_hotspot_tables():
    primary = Primary("quorum", "testnet", scale=0.05, seed=3,
                      observe=ObservabilityOptions(trace=True, profile=True))
    primary.run(simple_spec(TransferSpec(AccountSample(100)),
                            LoadSchedule.constant(100.0, 5.0)))
    events = primary.engine.events_executed
    report = trace_report(primary.tracer, primary.profiler)

    lines = report.splitlines()
    assert lines[0].startswith("transaction lifecycle — quorum")
    for phase in TX_PHASES:
        assert any(line.split()[:1] == [phase] for line in lines), phase
    assert "consensus rounds (per block)" in lines
    (header,) = re.findall(r"^engine hotspots — (\d+) events", report,
                           flags=re.MULTILINE)
    assert int(header) == events

    # one row per label under the column header and its rule; the count
    # is third from the right (event, count, wall_s, share)
    rows = hotspot_table(primary.profiler, top=10**6).splitlines()[2:]
    assert sum(int(row.split()[-3]) for row in rows) == events


def test_hotspot_table_without_events():
    assert hotspot_table(EngineProfiler()) == "(no events profiled)"


def _rows(table):
    """The table's data rows as column -> cell dicts (columns are at
    least two spaces apart; a cell may hold single ones)."""
    header, _rule, *rows = (re.split(r"\s{2,}", line.strip())
                            for line in table.splitlines())
    return [dict(zip(header, row)) for row in rows]


def test_sweep_report_rows_and_lines(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CODE_VERSION", "pinned")
    cache = ResultCache(tmp_path)
    spec = SweepSpec(chains=("quorum",), configurations=("testnet",),
                     workloads=(crashing_trace(), "native-100"),
                     seeds=(1,), scales=(0.05,))
    cold = run_sweep(spec, cache=cache)
    crashed, done = _rows(sweep_table(cold))
    assert crashed["status"].startswith("crashed (")
    assert (crashed["tput_tps"], crashed["latency_s"], crashed["commit"]) \
        == ("-", "-", "-")
    summary = cold.outcomes[1].summary
    assert done == {
        "chain": "quorum", "configuration": "testnet",
        "workload": "native-100", "seed": "1", "scale": "0.05",
        "status": "ok",
        "tput_tps": f"{summary['average_throughput_tps']:.2f}",
        "latency_s": f"{summary['average_latency_s']:.3f}",
        "commit": f"{summary['commit_ratio']:.2f}",
        "cache": "miss"}
    assert "simulated cells" not in sweep_report(cold)

    # the crash is never cached and runs again; the clean cell replays
    warm = sweep_report(run_sweep(spec, cache=cache))
    crashed_again, replayed = _rows(warm.split("\n\n")[0])
    assert crashed_again == crashed
    assert replayed == {**done, "cache": "hit"}
    assert ("simulated cells: 1 of 2"
            " (the rest replayed from the result cache)") in warm.splitlines()
    assert warm.splitlines()[-2].startswith(
        "failed: quorum/testnet/crashes")
    assert warm.splitlines()[-1].startswith(
        "cells: 2  done: 1  failed: 1  cache: 1 hits, 1 misses")


def test_sweep_table_watchdog_failed_row():
    spec = SweepSpec(chains=("quorum",), seeds=(1,),
                     options=CellOptions(max_sim_seconds=5.0), **FAST)
    sweep = run_sweep(spec)
    (row,) = _rows(sweep_table(sweep))
    summary = sweep.outcomes[0].summary
    assert row["status"] == "failed"
    assert row["tput_tps"] == f"{summary['average_throughput_tps']:.2f}"
    assert row["commit"] == f"{summary['commit_ratio']:.2f}"
    assert f"failed: {sweep.outcomes[0].cell.label} — RunFailed: run marked" \
        in sweep_report(sweep)
