"""``python -m repro trace`` report tests: phase, round and hotspot tables."""

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
    trace_report,
)
from repro.obs.trace import TX_PHASES


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
