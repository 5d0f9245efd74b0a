"""Post-mortem analysis of benchmark results.

The real DIABLO ships a ``csv-results`` script converting the Primary's
JSON output to CSV rows (artifact appendix A.3); this module reproduces
that plus the aggregations the paper's figures are built from.
"""

from __future__ import annotations

import csv
import io
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

if TYPE_CHECKING:
    from repro.core.results import BenchmarkResult

#: metric names computed from the result object rather than read out of
#: ``summary()`` (tail latencies are analysis-side: adding them to the
#: summary would change the serialized result format)
_COMPUTED_METRICS = {
    "p95_latency_s": lambda result: result.latency_percentile(95),
    "p99_latency_s": lambda result: result.latency_percentile(99),
}


def transactions_to_csv(result: BenchmarkResult) -> str:
    """Per-transaction CSV: submission time and commit latency.

    Mirrors the artifact's per-line output ("the first submitted transaction
    for Algorand at time 0.10 second took 0.53 seconds to commit").
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["submitted_at", "latency_s", "committed", "abort_reason"])
    for record in sorted(result.records, key=lambda r: r.submitted_at):
        writer.writerow([
            f"{record.submitted_at:.2f}",
            f"{record.latency:.2f}" if record.latency is not None else "",
            int(record.committed),
            record.abort_reason or "",
        ])
    return buffer.getvalue()


def comparison_table(results: Dict[str, BenchmarkResult],
                     metrics: Sequence[str] = ("average_throughput_tps",
                                               "average_latency_s",
                                               "p95_latency_s",
                                               "p99_latency_s",
                                               "commit_ratio")) -> List[Dict]:
    """Rows comparing chains on the same workload (a figure's bars).

    ``metrics`` may name any ``summary()`` key plus the computed tail
    latencies ``p95_latency_s``/``p99_latency_s``.
    """
    rows = []
    for chain, result in sorted(results.items()):
        summary = result.summary()
        row = {"chain": chain}
        for metric in metrics:
            computed = _COMPUTED_METRICS.get(metric)
            if computed is not None:
                value = computed(result)
                row[metric] = None if np.isnan(value) else round(value, 3)
            else:
                row[metric] = summary[metric]
        rows.append(row)
    return rows


def format_table(rows: List[Dict], float_format: str = "{:.2f}") -> str:
    """Render rows as an aligned text table (for bench stdout)."""
    if not rows:
        return "(no rows)"
    columns = list(rows[0].keys())
    rendered: List[List[str]] = [columns]
    for row in rows:
        cells = []
        for column in columns:
            value = row.get(column)
            if isinstance(value, float):
                cells.append(float_format.format(value))
            else:
                cells.append(str(value))
        rendered.append(cells)
    widths = [max(len(line[i]) for line in rendered)
              for i in range(len(columns))]
    lines = []
    for line_index, line in enumerate(rendered):
        lines.append("  ".join(cell.ljust(widths[i])
                               for i, cell in enumerate(line)))
        if line_index == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def degradation_report(result: BenchmarkResult) -> str:
    """Availability report for a faulted run (text, for bench stdout).

    Shows the commit ratio before/during/after the fault window, the time
    the chain took to commit again after the last repair, and the client
    retry burden — the robustness counterpart of the paper's §6.5 drop
    accounting.
    """
    info = result.degradation()
    if info is None:
        return "(no faults injected)"
    start, end = info["fault_window"]
    ttr = info["time_to_recover_s"]
    lines = [
        f"fault window          {start:.1f}s .. {end:.1f}s",
        f"commit ratio before   {info['commit_ratio_before']:.2%}",
        f"commit ratio during   {info['commit_ratio_during']:.2%}",
        f"commit ratio after    {info['commit_ratio_after']:.2%}",
        "time to recover       "
        + (f"{ttr:.2f}s" if ttr is not None else "never recovered"),
        f"retries per tx        {info['retries_per_tx']:.2f}",
    ]
    events = ", ".join(
        f"{e['kind']}@{e['at']:.0f}s" for e in result.fault_events)
    lines.append(f"events                {events}")
    return "\n".join(lines)


def overload_report(result: BenchmarkResult) -> str:
    """Resource-exhaustion report for an overloaded run (text).

    Narrates the §6 crash-under-load observations: which validators
    OOM-crashed and when, when consensus stalled, when admission started
    shedding, how hard the pool dropped, and the watchdog's verdict.
    """
    lines = [f"run status            {result.status}"]
    peak = result.chain_stats.get("memory_pressure_peak")
    if peak is not None:
        lines.append(f"peak memory pressure  {float(peak):.0%} of RAM")
    for event in result.overload_events:
        kind = event["kind"]
        at = event["at"]
        if kind == "oom_crash":
            lines.append(f"node {event['node']} OOM-crashed at t={at:.1f}s"
                         f" ({event['pressure']:.0%} of RAM)")
        elif kind == "commit_stall":
            lines.append(f"consensus stalled under memory pressure"
                         f" at t={at:.1f}s")
        elif kind == "commit_resumed":
            lines.append(f"consensus resumed at t={at:.1f}s")
        elif kind == "shed_start":
            lines.append(f"admission shedding load from t={at:.1f}s")
        elif kind == "shed_stop":
            lines.append(f"admission stopped shedding at t={at:.1f}s")
        else:
            lines.append(f"{kind} at t={at:.1f}s")
    if not result.overload_events:
        lines.append("(no overload responses fired)")
    drops = {key: int(value) for key, value in result.chain_stats.items()
             if key.startswith("mempool_drop_")}
    shed = int(result.chain_stats.get("admission_shed_rejections", 0))
    if shed:
        drops["shed_at_door"] = shed
    if drops:
        lines.append("drop reasons          " + ", ".join(
            f"{key.replace('mempool_drop_', '')}={value}"
            for key, value in sorted(drops.items())))
    stalled_at = result.stalled_at()
    if stalled_at is not None:
        lines.append(f"watchdog: no commit progress since t={stalled_at:.1f}s"
                     f" — run marked {result.status}")
    for event in result.liveness_events:
        if event["kind"] == "deadline_hit":
            lines.append(f"deadline of {event['deadline']:.0f}s simulated"
                         f" seconds hit at t={event['at']:.1f}s")
    return "\n".join(lines)


def _p50(result: BenchmarkResult) -> Optional[float]:
    """Median commit latency over the whole horizon (drain included).

    Under attack honest commits often land past the nominal duration
    window, so the windowed ``median_latency_s`` can be NaN while plenty
    of transactions did commit — the full-horizon median is the honest
    number to compare.
    """
    latencies = result.latencies()
    if latencies.size == 0:
        return None
    return float(np.median(latencies))


def economic_impact(baseline: BenchmarkResult,
                    attacked: BenchmarkResult) -> Dict[str, object]:
    """Cost-to-delay accounting for one chain: benign run vs attacked run.

    The headline number is ``cost_per_delay_s`` — fee units the attacker
    spent per second of added median honest latency. A high number means
    the fee market priced the attack out (economic resilience); a low
    number means blockspace was cheap to deny.
    """
    adversary = attacked.economics.get("adversary", {})
    base_p50 = _p50(baseline)
    attacked_p50 = _p50(attacked)
    delay = (attacked_p50 - base_p50
             if base_p50 is not None and attacked_p50 is not None else None)
    spend = adversary.get("spend", 0)
    # below ~10ms of added latency "cost per delay-second" is noise (an
    # attack can hurt through commit ratio while barely moving the median)
    cost_per_s = (round(spend / delay, 1)
                  if delay is not None and delay > 1e-2 else None)
    return {
        "chain": attacked.chain,
        "dialect": attacked.economics.get("dialect", "?"),
        "baseline_p50_s": (None if base_p50 is None else round(base_p50, 3)),
        "attacked_p50_s": (None if attacked_p50 is None
                           else round(attacked_p50, 3)),
        "delay_added_s": (None if delay is None else round(delay, 3)),
        "attacker_spend": spend,
        "cost_per_delay_s": cost_per_s,
        "baseline_commit_ratio": round(baseline.commit_ratio, 3),
        "attacked_commit_ratio": round(attacked.commit_ratio, 3),
        "attacker_committed": adversary.get("committed", 0),
        "attacker_dropped": adversary.get("dropped", 0),
        "exhausted_at_s": adversary.get("exhausted_at"),
    }


def binding_subsystem(result: BenchmarkResult) -> str:
    """Which subsystem binds at saturation, read from the run's stats.

    Heuristic, in blame order: ``memory`` (overload responses fired or
    pressure hit the ceiling), ``admission`` (the ingress gate shed
    load), ``mempool`` (the pool dropped transactions), ``consensus``
    (nothing was shed or dropped, the backlog simply outran commits), or
    ``none`` (the run kept up). Used by the knee tables in docs/SCALE.md
    to name *why* each chain stops scaling.
    """
    if result.commit_ratio >= 0.95:
        return "none"
    stats = result.chain_stats
    pressure = float(stats.get("memory_pressure_peak", 0.0) or 0.0)
    if result.overload_events or pressure >= 1.0:
        return "memory"
    if int(stats.get("admission_shed_rejections", 0) or 0) > 0:
        return "admission"
    pool_drops = sum(int(value) for key, value in stats.items()
                     if key.startswith("mempool_drop_"))
    if pool_drops > 0 or int(stats.get("dropped", 0) or 0) > 0:
        return "mempool"
    return "consensus"


def knee_table(results: Dict[int, BenchmarkResult],
               knee_ratio: float = 0.9) -> List[Dict]:
    """Rows of a population-scale knee sweep for one chain.

    *results* maps a user count to the population run at that count
    (a ``population:`` spec or a sweep's ``populations`` axis). Each row
    reports the population-scaled offered load, delivered throughput,
    commit ratio and p95 latency plus the binding subsystem; the first
    population whose commit ratio falls below *knee_ratio* is flagged as
    the knee — the population size where the chain stops keeping up.
    """
    rows: List[Dict] = []
    knee_found = False
    for users in sorted(results):
        result = results[users]
        scaled = (result.population or {}).get("population_scaled", {})
        ratio = float(scaled.get("commit_ratio", result.commit_ratio))
        at_knee = not knee_found and ratio < knee_ratio
        knee_found = knee_found or at_knee
        rows.append({
            "users": users,
            "offered_load_tps": scaled.get("offered_load_tps"),
            "throughput_tps": scaled.get("throughput_tps"),
            "commit_ratio": round(ratio, 4),
            "p95_latency_s": scaled.get("latency_p95_s"),
            "binding": binding_subsystem(result),
            "knee": at_knee,
        })
    return rows


def population_report(result: BenchmarkResult) -> str:
    """Population-run report (text, for the CLI and examples).

    Renders the three sections of the result's ``population`` block —
    cohort-exact, aggregate-lane and population-scaled — as aligned
    text, ending with the binding-subsystem verdict.
    """
    block = result.population
    if not block:
        return "(not a population run)"
    cohort = block["cohort_exact"]
    aggregate = block["aggregate_lane"]
    scaled = block["population_scaled"]

    def latency(section: Dict, key: str) -> str:
        value = section.get(key)
        return f"{value:.2f}s" if value is not None else "n/a"

    lines = [
        f"population            {block['users']:,} users"
        f" ({block['cohort_size']:,} tracked cohort,"
        f" {block['aggregate_users']:,} aggregate,"
        f" {block['arrival']} arrivals)",
        f"offered load          {scaled['offered_load_tps']:,.0f} TPS",
        f"delivered throughput  {scaled['throughput_tps']:,.1f} TPS",
        f"commit ratio          {scaled['commit_ratio']:.2%}"
        f" (cohort {cohort['commit_ratio']:.2%},"
        f" aggregate {aggregate['commit_ratio']:.2%})",
        f"cohort latency        p50 {latency(cohort, 'latency_p50_s')},"
        f" p95 {latency(cohort, 'latency_p95_s')}"
        f" ({cohort['submitted']} txs, full per-tx fidelity)",
        f"aggregate lane        {aggregate['submitted']:,} submitted,"
        f" {aggregate['committed']:,} committed,"
        f" {aggregate['dropped']:,} dropped",
        f"binding subsystem     {binding_subsystem(result)}",
        f"run status            {result.status}",
    ]
    return "\n".join(lines)


def throughput_timeseries(result: BenchmarkResult,
                          bin_size: float = 1.0) -> List[Dict[str, float]]:
    """Per-second load vs throughput rows (the paper's time series)."""
    times, tput = result.throughput_series(bin_size)
    _, load = result.load_series(bin_size)
    rows = []
    for i, t in enumerate(times):
        rows.append({
            "time": float(t),
            "load_tps": float(load[i]) if i < load.size else 0.0,
            "throughput_tps": float(tput[i]),
        })
    return rows


def cdf_points(result: BenchmarkResult,
               max_points: int = 200) -> List[Dict[str, float]]:
    """Down-sampled latency-CDF points for plotting (Fig. 6 style)."""
    latencies, fractions = result.latency_cdf()
    if latencies.size == 0:
        return []
    if latencies.size > max_points:
        idx = np.linspace(0, latencies.size - 1, max_points).astype(int)
        latencies, fractions = latencies[idx], fractions[idx]
    return [{"latency_s": float(l), "fraction": float(f)}
            for l, f in zip(latencies, fractions)]
