"""Observability: lifecycle tracing, metrics registry, engine profiling.

The package behind ``python -m repro trace``:

* :mod:`repro.obs.trace` — per-transaction phase spans on the sim clock;
* :mod:`repro.obs.metrics` — namespaced counters/gauges/histograms with
  periodic sim-clock sampling, and :class:`ObservabilityOptions`;
* :mod:`repro.obs.profiler` — wall-clock attribution per engine event;
* :mod:`repro.obs.exporters` — JSONL, Chrome ``trace_event``, Prometheus;
* :mod:`repro.obs.report` — the phase-breakdown and hotspot text tables.

Everything is off by default: tracing/profiling attach explicitly via
:class:`ObservabilityOptions` and a disabled run is outcome-identical.
"""

from repro import lazy_package

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

__getattr__, __dir__ = lazy_package(globals(), {
    "repro.obs.exporters": (
        "chrome_trace", "spans_to_jsonl", "write_chrome_trace",
        "write_prometheus", "write_spans_jsonl",
    ),
    "repro.obs.metrics": (
        "Counter", "Gauge", "Histogram", "MetricsNamespace",
        "MetricsRegistry", "MetricsSampler", "ObservabilityOptions",
    ),
    "repro.obs.profiler": ("EngineProfiler", "peak_rss_bytes"),
    "repro.obs.report": (
        "consensus_table", "hotspot_table", "phase_table", "sweep_report",
        "sweep_table", "trace_report",
    ),
    "repro.obs.trace": ("LifecycleTracer", "Span", "TX_PHASES"),
})
