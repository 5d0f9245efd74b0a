"""Text reports for ``python -m repro trace``: phase table + hotspots."""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.obs.trace import TX_PHASES

if TYPE_CHECKING:
    from repro.obs.profiler import EngineProfiler
    from repro.obs.trace import LifecycleTracer


def format_table(rows: List[Dict[str, Any]]) -> str:
    """Re-export of :func:`repro.analysis.summary.format_table`.

    Imported lazily: ``analysis`` imports ``core`` which imports the chain
    runtimes, and those import :mod:`repro.obs` — a module-level import
    here would close that cycle.
    """
    from repro.analysis.summary import format_table as _format_table
    return _format_table(rows)


def _cell(value: float) -> str:
    if isinstance(value, float) and math.isnan(value):
        return "-"
    return f"{value:.4f}"


def phase_table(tracer: LifecycleTracer) -> str:
    """Per-phase latency breakdown table (seconds, committed transactions)."""
    breakdown = tracer.phase_breakdown()
    rows = []
    for phase in TX_PHASES:
        stats = breakdown[phase]
        rows.append({
            "phase": phase,
            "count": stats["count"],
            "mean_s": _cell(stats["mean"]),
            "p50_s": _cell(stats["p50"]),
            "p95_s": _cell(stats["p95"]),
            "p99_s": _cell(stats["p99"]),
        })
    return format_table(rows)


def consensus_table(tracer: LifecycleTracer) -> Optional[str]:
    """Block-level consensus sub-phase table, or None without block spans."""
    breakdown = tracer.consensus_round_breakdown()
    if not breakdown:
        return None
    rows = []
    for phase, stats in breakdown.items():
        rows.append({
            "round_phase": phase,
            "blocks": stats["count"],
            "mean_s": _cell(stats["mean"]),
            "p50_s": _cell(stats["p50"]),
            "p95_s": _cell(stats["p95"]),
            "p99_s": _cell(stats["p99"]),
        })
    return format_table(rows)


def hotspot_table(profiler: EngineProfiler, top: int = 10) -> str:
    """Top engine event labels by accumulated wall-clock time."""
    rows = []
    total = profiler.total_seconds
    for label, count, seconds in profiler.hotspots(top):
        share = seconds / total if total > 0 else 0.0
        rows.append({
            "event": label,
            "count": count,
            "wall_s": f"{seconds:.4f}",
            "share": f"{share:.1%}",
        })
    if not rows:
        return "(no events profiled)"
    return format_table(rows)


def trace_report(tracer: LifecycleTracer,
                 profiler: Optional[EngineProfiler] = None,
                 top: int = 10) -> str:
    """The full ``python -m repro trace`` stdout report."""
    lines: List[str] = [
        f"transaction lifecycle — {tracer.chain}"
        f" ({tracer.traced_transactions()} committed traced)",
        "",
        phase_table(tracer),
    ]
    consensus = consensus_table(tracer)
    if consensus is not None:
        lines += ["", "consensus rounds (per block)", "", consensus]
    if profiler is not None:
        lines += [
            "",
            f"engine hotspots — {profiler.total_events} events,"
            f" {profiler.total_seconds:.3f}s wall clock,"
            f" peak RSS {profiler.peak_rss_bytes / (1 << 20):.1f} MiB",
            "",
            hotspot_table(profiler, top=top),
        ]
    return "\n".join(lines)


def sweep_table(sweep_result: Any) -> str:
    """Aggregated comparison table of a sweep's cells, in cell order.

    Takes a :class:`repro.sweep.runner.SweepResult` (duck-typed — this
    module cannot import :mod:`repro.sweep`, which imports :mod:`repro.obs`
    for its metrics registry). Every aggregate is read from the cell's
    result summary, as the run rounded it, so a replayed cell prints what
    the run printed without its records being parsed. Crashed cells render
    their error in place of the aggregates.
    """
    rows: List[Dict[str, Any]] = []
    for outcome in sweep_result.outcomes:
        cell = outcome.cell
        row: Dict[str, Any] = {
            "chain": cell.chain,
            "configuration": cell.configuration.name,
            "workload": cell.workload,
            "seed": cell.seed,
            "scale": f"{cell.scale:g}",
        }
        summary = outcome.summary
        if summary is not None:
            latency = summary["average_latency_s"]
            row.update({
                "status": summary["status"],
                "tput_tps": summary["average_throughput_tps"],
                # None: nothing submitted; NaN: nothing committed in time
                "latency_s": "-" if latency is None or math.isnan(latency)
                else f"{latency:.3f}",
                "commit": summary["commit_ratio"],
            })
        else:
            row.update({
                "status": f"crashed ({outcome.failure.error_type})",
                "tput_tps": "-", "latency_s": "-", "commit": "-",
            })
        row["cache"] = "hit" if outcome.cached else "miss"
        rows.append(row)
    return format_table(rows)


def sweep_report(sweep_result: Any) -> str:
    """The ``python -m repro sweep`` stdout report: table, metrics, verdict."""
    lines = [sweep_table(sweep_result), ""]
    simulated = sweep_result.metrics.get("sweep.cell_wall_seconds")
    total = len(sweep_result.outcomes)
    if simulated and simulated < total:
        lines.append(f"simulated cells: {simulated} of {total}"
                     f" (the rest replayed from the result cache)")
    for outcome in sweep_result.failures:
        failure = outcome.failure
        lines.append(f"failed: {outcome.cell.label} — {failure}")
    lines.append(sweep_result.summary_line())
    return "\n".join(lines)
