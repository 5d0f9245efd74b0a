"""Observability: lifecycle tracing, metrics registry, engine profiling.

The package behind ``python -m repro trace``:

* :mod:`repro.obs.trace` — per-transaction phase spans on the sim clock;
* :mod:`repro.obs.metrics` — namespaced counters/gauges/histograms with
  periodic sim-clock sampling;
* :mod:`repro.obs.profiler` — wall-clock attribution per engine event;
* :mod:`repro.obs.exporters` — JSONL, Chrome ``trace_event``, Prometheus;
* :mod:`repro.obs.report` — the phase-breakdown and hotspot text tables.

Everything is off by default: tracing/profiling attach explicitly via
:class:`ObservabilityOptions` and a disabled run is outcome-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigurationError
from repro.obs.exporters import (
    chrome_trace,
    spans_to_jsonl,
    write_chrome_trace,
    write_prometheus,
    write_spans_jsonl,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsNamespace,
    MetricsRegistry,
    MetricsSampler,
)
from repro.obs.profiler import EngineProfiler, peak_rss_bytes
from repro.obs.report import (
    consensus_table,
    hotspot_table,
    phase_table,
    sweep_report,
    sweep_table,
    trace_report,
)
from repro.obs.trace import TX_PHASES, LifecycleTracer, Span


@dataclass(frozen=True)
class ObservabilityOptions:
    """What to observe during a run (all observation, zero perturbation).

    ``trace``          attach a :class:`LifecycleTracer` to the chain
    ``profile``        attach an :class:`EngineProfiler` to the engine
                       (the one consumer of wall-clock time)
    ``sample_period``  sim-clock seconds between metrics snapshots;
                       ``0`` disables the sampler (no timeseries rows)
    """

    trace: bool = True
    profile: bool = False
    sample_period: float = 1.0

    def __post_init__(self) -> None:
        if self.sample_period < 0:
            raise ConfigurationError(
                f"sample_period cannot be negative: {self.sample_period}")


__all__ = [
    "Counter",
    "EngineProfiler",
    "Gauge",
    "Histogram",
    "LifecycleTracer",
    "MetricsNamespace",
    "MetricsRegistry",
    "MetricsSampler",
    "ObservabilityOptions",
    "Span",
    "TX_PHASES",
    "chrome_trace",
    "consensus_table",
    "hotspot_table",
    "peak_rss_bytes",
    "phase_table",
    "spans_to_jsonl",
    "sweep_report",
    "sweep_table",
    "trace_report",
    "write_chrome_trace",
    "write_prometheus",
    "write_spans_jsonl",
]
