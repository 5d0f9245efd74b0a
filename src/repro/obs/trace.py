"""Transaction-lifecycle tracing on the simulated clock.

The paper explains *why* chains miss their claimed performance — mempool
saturation, leader stalls, consensus backlog (§5/§6) — but an end-to-end
``submitted_at``/``committed_at`` pair cannot attribute a slow run to a
layer. The :class:`LifecycleTracer` stamps every transaction with per-phase
spans, all on the simulated clock:

========== ==================================================================
phase      interval
========== ==================================================================
admission  client submit (first attempt) → entry into the mempool; covers
           retry/backoff loops
mempool    pool residency: admission → inclusion in a sealed block
execution  the block's VM execution slice attributed to its transactions
consensus  end of execution → the block reaching finality (propose/vote
           rounds, view changes, confirmation depth)
receipt    finality → the client observing the commit (§5.2 commit APIs)
========== ==================================================================

Phases are contiguous by construction, so for every committed transaction
they sum exactly to its end-to-end latency — the invariant the test suite
asserts per chain. Aborted transactions get a drop *event* and no spans.

Blocks are traced too: each sealed block carries the consensus model's
propose/vote/execute breakdown (:class:`DecisionOutcome.breakdown`),
normalised to the block's actual decision latency, which is what the Chrome
``trace_event`` export renders as nested consensus rounds.

No tracer is the default everywhere: a run without tracing performs no
per-transaction bookkeeping and is outcome-identical (the runtimes guard
every hook behind ``if self.tracer is not None``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

#: Canonical transaction phases, in lifecycle order.
TX_PHASES: Tuple[str, ...] = (
    "admission", "mempool", "execution", "consensus", "receipt")


@dataclass(frozen=True, slots=True)
class Span:
    """One closed interval of a traced entity's lifecycle."""

    scope: str              # "tx" | "block" | "byzantine"
    key: int                # transaction uid or block trace id
    phase: str              # one of TX_PHASES, or a consensus sub-phase
    start: float
    end: float
    meta: Tuple[Tuple[str, Any], ...] = ()

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        row: Dict[str, Any] = {
            "scope": self.scope, "key": self.key, "phase": self.phase,
            "start": self.start, "end": self.end}
        if self.meta:
            row["meta"] = dict(self.meta)
        return row

    @staticmethod
    def from_dict(row: Dict[str, Any]) -> "Span":
        meta = tuple(sorted(row.get("meta", {}).items()))
        return Span(scope=row["scope"], key=row["key"], phase=row["phase"],
                    start=row["start"], end=row["end"], meta=meta)


class LifecycleTracer:
    """Collects per-transaction and per-block spans for one chain run."""

    def __init__(self, chain: str = "") -> None:
        self.chain = chain
        self.spans: List[Span] = []
        self.events: List[Dict[str, Any]] = []
        # open per-transaction marks: uid -> {submitted, admitted, included,
        # exec_end, block}
        self._marks: Dict[int, Dict[str, float]] = {}
        # open per-block records: id -> {start, height, leader, exec_time,
        # breakdown, txs}
        self._blocks: Dict[int, Dict[str, Any]] = {}
        self._next_block_id = 0

    # -- transaction hooks ---------------------------------------------------------

    def tx_submit(self, tx: Any, t: float, attempt: int) -> None:
        marks = self._marks.get(tx.uid)
        if marks is None:
            self._marks[tx.uid] = {"submitted": t}
        self.events.append({"t": t, "kind": "submit", "uid": tx.uid,
                            "attempt": attempt})

    def tx_rejected(self, tx: Any, t: float, reason: str,
                    will_retry: bool) -> None:
        self.events.append({"t": t, "kind": "rejected", "uid": tx.uid,
                            "reason": reason, "will_retry": will_retry})

    def tx_admitted(self, tx: Any, t: float) -> None:
        marks = self._marks.setdefault(tx.uid, {"submitted": t})
        # a requeued/resubmitted transaction keeps its first admission: the
        # pool residency span covers the whole stay
        marks.setdefault("admitted", t)
        self.events.append({"t": t, "kind": "admitted", "uid": tx.uid})

    def tx_dropped(self, tx: Any, t: float, reason: str) -> None:
        # aborted transactions leave an event and no spans — the span set is
        # the record of a *successful* lifecycle
        self._marks.pop(tx.uid, None)
        self.events.append({"t": t, "kind": "dropped", "uid": tx.uid,
                            "reason": reason})

    def tx_committed(self, tx: Any, final_time: float,
                     committed_at: float) -> None:
        """Close the lifecycle: emit the five contiguous phase spans."""
        marks = self._marks.pop(tx.uid, None)
        if marks is None or "included" not in marks:
            # committed without a traced inclusion (tracer attached
            # mid-run); nothing trustworthy to emit
            self.events.append({"t": committed_at, "kind": "committed",
                                "uid": tx.uid, "untraced": True})
            return
        submitted = marks["submitted"]
        admitted = min(max(marks.get("admitted", submitted), submitted),
                       marks["included"])
        included = marks["included"]
        # some models (PoH slots) decide faster than the execution slice;
        # clamp so the phases stay contiguous and non-negative
        exec_end = min(max(marks.get("exec_end", included), included),
                       final_time)
        meta = (("chain", self.chain),)
        uid = tx.uid
        self.spans.append(Span("tx", uid, "admission", submitted, admitted,
                               meta))
        self.spans.append(Span("tx", uid, "mempool", admitted, included,
                               meta))
        self.spans.append(Span("tx", uid, "execution", included, exec_end,
                               meta))
        self.spans.append(Span("tx", uid, "consensus", exec_end,
                               max(final_time, exec_end), meta))
        self.spans.append(Span("tx", uid, "receipt", max(final_time, exec_end),
                               max(committed_at, final_time), meta))
        self.events.append({"t": committed_at, "kind": "committed",
                            "uid": uid})

    # -- block hooks ----------------------------------------------------------------

    def block_sealed(self, t: float, height: int, leader: str,
                     txs: Sequence[Any], exec_time: float,
                     outcome: Any) -> int:
        block_id = self._next_block_id
        self._next_block_id += 1
        for tx in txs:
            marks = self._marks.get(tx.uid)
            if marks is None:
                continue
            marks["included"] = t
            marks["exec_end"] = t + exec_time
            marks["block"] = block_id
        self._blocks[block_id] = {
            "start": t, "height": height, "leader": leader,
            "tx_count": len(txs),
            "breakdown": dict(getattr(outcome, "breakdown", None) or {}),
            "view_changes": getattr(outcome, "view_changes", 0)}
        return block_id

    def block_appended(self, block_id: int, t: float) -> None:
        """The block landed: emit its consensus-round sub-spans.

        The model's propose/vote/execute breakdown is normalised to the
        actual seal→append latency (view-change waits and leader-skip
        penalties stretch it), then laid out contiguously.
        """
        record = self._blocks.pop(block_id, None)
        if record is None:
            return
        start = record["start"]
        actual = max(0.0, t - start)
        breakdown = record["breakdown"]
        meta = (("chain", self.chain), ("height", record["height"]),
                ("leader", record["leader"]),
                ("tx_count", record["tx_count"]),
                ("view_changes", record["view_changes"]))
        modelled = sum(breakdown.values())
        if breakdown and modelled > 0:
            ratio = actual / modelled
            cursor = start
            for phase, seconds in breakdown.items():
                end = cursor + seconds * ratio
                self.spans.append(Span("block", block_id, phase, cursor, end,
                                       meta))
                cursor = end
        else:
            self.spans.append(Span("block", block_id, "decide", start, t,
                                   meta))

    def block_requeued(self, block_id: int, t: float) -> None:
        """Consensus gave up on the block: its batch returned to the pool.

        The transactions' inclusion marks are rolled back so their mempool
        span extends to the next (successful) inclusion; the failed rounds
        show up inside the eventual consensus span.
        """
        record = self._blocks.pop(block_id, None)
        for marks in self._marks.values():
            if marks.get("block") == block_id:
                marks.pop("included", None)
                marks.pop("exec_end", None)
                marks.pop("block", None)
        self.events.append({"t": t, "kind": "block_requeued",
                            "block": block_id,
                            "height": record["height"] if record else None})

    # -- byzantine adversary hooks ---------------------------------------------------

    def adversary_window(self, index: int, kind: str, start: float,
                         stop: float, node: Any) -> None:
        """One scheduled misbehaviour window as a span on the sim clock,
        so the attack interval renders next to the blocks it degrades."""
        self.spans.append(Span(
            "byzantine", index, kind, start, stop,
            meta=(("chain", self.chain), ("height", index),
                  ("node", node))))

    def adversary_action(self, t: float, action: str, **info: Any) -> None:
        """One adversarial intervention (a forked/withheld/delayed send)."""
        self.events.append({"t": t, "kind": f"byzantine_{action}", **info})

    # -- aggregation -----------------------------------------------------------------

    def phase_breakdown(self) -> Dict[str, Dict[str, float]]:
        """Per-phase latency statistics: count, mean, p50/p95/p99 seconds."""
        by_phase: Dict[str, List[float]] = {phase: [] for phase in TX_PHASES}
        for span in self.spans:
            if span.scope == "tx" and span.phase in by_phase:
                by_phase[span.phase].append(span.duration)
        breakdown: Dict[str, Dict[str, float]] = {}
        for phase in TX_PHASES:
            values = by_phase[phase]
            if not values:
                breakdown[phase] = {"count": 0, "mean": float("nan"),
                                    "p50": float("nan"), "p95": float("nan"),
                                    "p99": float("nan")}
                continue
            arr = np.asarray(values)
            breakdown[phase] = {
                "count": len(values),
                "mean": float(arr.mean()),
                "p50": float(np.percentile(arr, 50)),
                "p95": float(np.percentile(arr, 95)),
                "p99": float(np.percentile(arr, 99)),
            }
        return breakdown

    def consensus_round_breakdown(self) -> Dict[str, Dict[str, float]]:
        """Mean/percentile statistics of block-level consensus sub-phases."""
        by_phase: Dict[str, List[float]] = {}
        for span in self.spans:
            if span.scope == "block":
                by_phase.setdefault(span.phase, []).append(span.duration)
        out: Dict[str, Dict[str, float]] = {}
        for phase in sorted(by_phase):
            arr = np.asarray(by_phase[phase])
            out[phase] = {
                "count": int(arr.size),
                "mean": float(arr.mean()),
                "p50": float(np.percentile(arr, 50)),
                "p95": float(np.percentile(arr, 95)),
                "p99": float(np.percentile(arr, 99)),
            }
        return out

    def traced_transactions(self) -> int:
        """Transactions with a complete (committed) lifecycle."""
        return sum(1 for s in self.spans
                   if s.scope == "tx" and s.phase == "receipt")
