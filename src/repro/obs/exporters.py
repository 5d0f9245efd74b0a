"""Trace/metrics exporters: JSONL spans, Chrome ``trace_event``, Prometheus.

Three interchange formats, all derived from the same tracer state:

* **JSONL spans** — one JSON object per line, one line per span, followed
  by the tracer's point events. A span line is :meth:`Span.to_dict`
  plus ``"type": "span"``, so :meth:`Span.from_dict` loads it back.
* **Chrome trace JSON** — the ``trace_event`` format Chrome's
  ``chrome://tracing`` and Perfetto load: complete (``"ph": "X"``) events
  with microsecond timestamps. Transactions render as one track per
  lifecycle phase; blocks render as consensus rounds with their
  propose/vote/execute sub-spans.
* **Prometheus text** — :meth:`MetricsRegistry.prometheus` wrapped with a
  file writer, for scraping-style post-mortems.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import EngineProfiler
from repro.obs.trace import LifecycleTracer, TX_PHASES

PathLike = Union[str, Path]

#: synthetic process ids for the Chrome trace's two tracks
_TX_PID = 1
_BLOCK_PID = 2


# -- JSONL spans --------------------------------------------------------------------


def spans_to_jsonl(tracer: LifecycleTracer) -> str:
    """Serialize a tracer's spans and events, one JSON object per line."""
    lines: List[str] = []
    for span in tracer.spans:
        lines.append(json.dumps({"type": "span", **span.to_dict()},
                                sort_keys=True))
    for event in tracer.events:
        lines.append(json.dumps({"type": "event", **event}, sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")


def write_spans_jsonl(tracer: LifecycleTracer, path: PathLike) -> Path:
    path = Path(path)
    path.write_text(spans_to_jsonl(tracer))
    return path


# -- Chrome trace_event ---------------------------------------------------------------


def _us(seconds: float) -> float:
    return round(seconds * 1e6, 3)


def chrome_trace(tracer: LifecycleTracer,
                 profiler: Optional[EngineProfiler] = None) -> Dict[str, Any]:
    """Build a ``chrome://tracing``-loadable trace document.

    Transaction spans land in one process ("transactions") with one thread
    per lifecycle phase, so the timeline reads as stacked phase lanes;
    block spans land in a "consensus rounds" process with one thread per
    block height modulo a small window (heights reuse lanes, keeping the
    view compact). Profiler totals, when given, are attached as metadata.
    """
    events: List[Dict[str, Any]] = [
        {"name": "process_name", "ph": "M", "pid": _TX_PID, "tid": 0,
         "args": {"name": "transactions"}},
        {"name": "process_name", "ph": "M", "pid": _BLOCK_PID, "tid": 0,
         "args": {"name": "consensus rounds"}},
    ]
    phase_tid = {phase: i + 1 for i, phase in enumerate(TX_PHASES)}
    for phase, tid in phase_tid.items():
        events.append({"name": "thread_name", "ph": "M", "pid": _TX_PID,
                       "tid": tid, "args": {"name": phase}})
    for span in tracer.spans:
        meta = dict(span.meta)
        if span.scope == "tx":
            pid = _TX_PID
            tid = phase_tid.get(span.phase, len(TX_PHASES) + 1)
            name = f"tx-{span.key}"
        else:
            pid = _BLOCK_PID
            tid = int(meta.get("height", span.key)) % 8 + 1
            name = span.phase
        events.append({
            "name": name,
            "cat": span.scope,
            "ph": "X",
            "pid": pid,
            "tid": tid,
            "ts": _us(span.start),
            "dur": _us(span.duration),
            "args": {"phase": span.phase, "key": span.key, **meta},
        })
    document: Dict[str, Any] = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"chain": tracer.chain},
    }
    if profiler is not None:
        document["otherData"]["engine"] = {
            "events": profiler.total_events,
            "wall_seconds": round(profiler.total_seconds, 6),
        }
    return document


def write_chrome_trace(tracer: LifecycleTracer, path: PathLike,
                       profiler: Optional[EngineProfiler] = None) -> Path:
    path = Path(path)
    path.write_text(json.dumps(chrome_trace(tracer, profiler)))
    return path


# -- Prometheus text --------------------------------------------------------------------


def write_prometheus(registry: MetricsRegistry, path: PathLike,
                     labels: Optional[Dict[str, str]] = None) -> Path:
    path = Path(path)
    path.write_text(registry.prometheus(labels=labels))
    return path
