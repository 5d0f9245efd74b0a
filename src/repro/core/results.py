"""Benchmark results: per-transaction records and aggregates.

The DIABLO Primary aggregates, from every Secondary, "the start time and end
time of each transaction" into a JSON file (§4); summary statistics and time
series are computed post-mortem. :class:`BenchmarkResult` is that JSON
file's in-memory form, with the aggregations the paper reports: average
load, average throughput, average/median latency, the proportion of
committed transactions, per-second time series and latency CDFs.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter
from typing import (TYPE_CHECKING, Any, Dict, Iterator, List, NamedTuple,
                    Optional, Tuple)

import numpy as np

if TYPE_CHECKING:
    from repro.chain.transaction import Transaction


#: how :meth:`BenchmarkResult.to_json` opens and closes the summary value:
#: what :meth:`BenchmarkResult.summary_from_json` finds it by
_SUMMARY_OPEN = '{"summary": '
_SUMMARY_CLOSE = ', "transactions": ['
_DOCUMENT_CLOSE = "]}"
_DECODER = json.JSONDecoder()
_new_tuple = tuple.__new__


class TransactionRecord(NamedTuple):
    """One transaction's benchmark-relevant timestamps and outcome.

    Immutable. A named tuple rather than a frozen dataclass because a run
    builds one per submitted transaction: construction is a single tuple
    allocation instead of ten ``object.__setattr__`` calls.
    """

    uid: int
    kind: str
    contract: Optional[str]
    function: Optional[str]
    client: str
    submitted_at: float
    committed_at: Optional[float]
    aborted: bool
    abort_reason: Optional[str]
    retries: int = 0

    @property
    def committed(self) -> bool:
        return self.committed_at is not None and not self.aborted

    @property
    def latency(self) -> Optional[float]:
        if not self.committed:
            return None
        return self.committed_at - self.submitted_at

    @staticmethod
    def from_transaction(tx: Transaction, client: str = "") -> "TransactionRecord":
        if tx.submitted_at is None:
            # a record with no submission time cannot enter latency or
            # throughput aggregates; callers filter these out and count
            # them (chain_stats["records_without_submit"]) instead of
            # letting a sentinel -1.0 poison the statistics
            raise ValueError(
                f"transaction {tx.uid} was never submitted"
                " (submitted_at is None)")
        aborted = tx.aborted
        # tuple.__new__ builds the same tuple as the class call without
        # the named tuple's Python-level __new__ frame
        return _new_tuple(TransactionRecord, (
            tx.uid, tx.kind.tag, tx.contract, tx.function, client,
            tx.submitted_at, None if aborted else tx.committed_at,
            aborted, tx.abort_reason, tx.retries))


#: a record's fields after ``uid``: its *tail*, in document order
_TAIL_FIELDS = TransactionRecord._fields[1:]
#: what opens a row, up to its uid's digits
_ROW_OPEN = '{"uid": '
#: what lies between one row's close and the next row's uid
_ROW_JOIN = ", " + _ROW_OPEN
_uid = itemgetter(0)
_tail = itemgetter(slice(1, None))
_submitted_at = itemgetter(5)
_committed_at = itemgetter(6)


class _TailTexts(dict):
    """``(tail, type(submitted_at), type(committed_at))`` -> its row text.

    The text is what ``json.dumps`` writes after a row's uid, from the
    tail's nine fields through the row's close, followed by
    :data:`_ROW_JOIN`: everything up to the next row's uid. The key
    carries the timestamp types because ``5 == 5.0`` while the two encode
    as ``5`` and ``5.0``. A tail holding a float zero is never stored,
    because ``-0.0 == 0.0`` while the two encode apart; such a row is
    encoded on its own. The other fields encode by value at their
    declared types. One instance lives for one
    :meth:`BenchmarkResult.json_parts` call, because ``records`` is a public
    list that callers may edit between calls.
    """

    def __missing__(self, key: tuple) -> str:
        row = dict(zip(_TAIL_FIELDS, key[0]))
        text = ", " + json.dumps(row)[1:] + _ROW_JOIN
        if 0.0 not in (row["submitted_at"], row["committed_at"]):
            self[key] = text
        return text


@dataclass
class BenchmarkResult:
    """Everything one benchmark run produced."""

    chain: str
    configuration: str
    workload_name: str
    duration: float
    scale: float
    records: List[TransactionRecord] = field(default_factory=list)
    chain_stats: Dict[str, float] = field(default_factory=dict)
    #: JSON summaries of the fault schedule applied during the run
    #: (see :func:`repro.sim.faults.event_summary`)
    fault_events: List[Dict[str, Any]] = field(default_factory=list)
    #: harness verdict: "ok", "degraded" (stalled but recovered, or
    #: overload responses fired), "failed" (ended stalled / deadline hit)
    status: str = "ok"
    #: watchdog stall/resume events on the simulated clock
    liveness_events: List[Dict[str, Any]] = field(default_factory=list)
    #: chain-side overload responses (oom_crash / commit_stall / shed_*)
    overload_events: List[Dict[str, Any]] = field(default_factory=list)
    #: periodic metrics-registry samples on the simulated clock (one row
    #: per sampler tick: {"t": ..., "<metric>": ...}); empty unless the run
    #: had observability enabled — untraced runs serialize identically to
    #: runs from before the registry existed
    timeseries: List[Dict[str, Any]] = field(default_factory=list)
    #: fee-market economics (dialect, closing floor, per-label spend, fee
    #: percentiles, adversary ledger) — empty unless the run had a
    #: ``fees:``/``adversary:`` section, so benign runs serialize
    #: identically to runs from before the fee market existed
    economics: Dict[str, Any] = field(default_factory=dict)
    #: population-run metrics (cohort-exact vs population-scaled, see
    #: :func:`repro.core.population.population_block`) — empty unless the
    #: spec had a ``population:`` section, so classic runs serialize
    #: identically to runs from before the population layer existed
    population: Dict[str, Any] = field(default_factory=dict)

    # -- core aggregates (unscaled back to real-experiment units) ----------------

    def _unscale(self, rate: float) -> float:
        return rate / self.scale if self.scale > 0 else rate

    @property
    def submitted(self) -> int:
        return len(self.records)

    def committed_records(self, window: Optional[float] = None
                          ) -> List[TransactionRecord]:
        """Records committed within the measurement window.

        The window defaults to the run duration — commits that land after
        the load generator stopped do not count toward throughput, matching
        the paper's average-throughput-over-the-run metric.
        """
        horizon = self.duration if window is None else window
        return [r for r in self._committed() if r.committed_at <= horizon]

    def _rate(self, count: int) -> float:
        """*count* transactions over the run window, as unscaled TPS."""
        if self.duration <= 0:
            return 0.0
        return self._unscale(count / self.duration)

    def _committed(self) -> List[TransactionRecord]:
        """Every committed record, in record order.

        The one walk over ``records`` that throughput, latency and the
        commit ratio are all derived from.
        """
        return [r for r in self.records
                if r.committed_at is not None and not r.aborted]

    @property
    def average_load(self) -> float:
        """Average submitted TPS (the paper's 'average workload')."""
        return self._rate(len(self.records))

    @property
    def average_throughput(self) -> float:
        """Average committed TPS over the run window."""
        return self._rate(len(self.committed_records()))

    @property
    def commit_ratio(self) -> float:
        """Proportion of submitted transactions ever committed."""
        return _ratio(len(self._committed()), len(self.records))

    def latencies(self, window: Optional[float] = None) -> np.ndarray:
        return _latencies(self._committed(), window)

    @property
    def average_latency(self) -> float:
        return _mean(self.latencies(self.duration))

    def latency_percentile(self, q: float) -> float:
        lats = self.latencies()
        return float(np.percentile(lats, q)) if lats.size else float("nan")

    # -- time series -------------------------------------------------------------------

    def throughput_series(self, bin_size: float = 1.0) -> Tuple[np.ndarray, np.ndarray]:
        """(bin start times, committed TPS per bin), unscaled."""
        commits = np.array([r.committed_at for r in self.records
                            if r.committed], dtype=float)
        end = self.duration
        bins = np.arange(0.0, end + bin_size, bin_size)
        counts, edges = np.histogram(commits, bins=bins)
        return edges[:-1], self._unscale(counts / bin_size)

    def load_series(self, bin_size: float = 1.0) -> Tuple[np.ndarray, np.ndarray]:
        """(bin start times, submitted TPS per bin), unscaled."""
        submits = np.array([r.submitted_at for r in self.records], dtype=float)
        end = self.duration
        bins = np.arange(0.0, end + bin_size, bin_size)
        counts, edges = np.histogram(submits, bins=bins)
        return edges[:-1], self._unscale(counts / bin_size)

    def latency_cdf(self) -> Tuple[np.ndarray, np.ndarray]:
        """(sorted latencies, cumulative fraction *of submitted*).

        The CDF is normalised by submissions, so dropped transactions show
        as the plateau below 1.0 — exactly the Fig. 6 presentation.
        """
        lats = np.sort(self.latencies())
        if not self.records:
            return lats, np.array([])
        fractions = np.arange(1, lats.size + 1) / len(self.records)
        return lats, fractions

    # -- fault degradation metrics -------------------------------------------------------

    def fault_window(self) -> Optional[Tuple[float, float]]:
        """(first disruption, last repair) from the recorded fault events.

        Only *disruptive* events open the window — a schedule of repairs
        alone (recover/heal/zero-zero link restores) yields ``None``.
        Byzantine misbehaviour windows count as disruptions (they carry a
        ``duration``) so the degradation metrics cover adversarial runs
        unchanged.
        """
        start: Optional[float] = None
        end = 0.0
        for event in self.fault_events:
            kind = event.get("kind")
            is_repair = kind in ("recover", "heal", "region_heal") or (
                kind == "link_degrade"
                and event.get("extra_latency", 0.0) <= 0
                and event.get("drop_rate", 0.0) <= 0)
            if is_repair:
                end = max(end, event["at"])
                continue
            if start is None or event["at"] < start:
                start = event["at"]
            end = max(end, event["at"] + event.get("duration", 0.0))
        if start is None:
            return None
        return start, max(start, end)

    def commit_ratio_between(self, t0: float, t1: float) -> float:
        """Commits landing in [t0, t1) per submission made in [t0, t1).

        The instantaneous availability metric: during a fault-induced stall
        clients keep submitting but nothing commits, so the ratio dips
        toward zero; after the repair the backlog lands and the ratio can
        transiently exceed one.
        """
        submitted = sum(1 for r in self.records
                        if t0 <= r.submitted_at < t1)
        if submitted == 0:
            return 0.0
        committed = sum(1 for r in self.records
                        if r.committed and t0 <= r.committed_at < t1)
        return committed / submitted

    def time_to_recover(self, fault_end: Optional[float] = None
                        ) -> Optional[float]:
        """Seconds from the last repair to the first commit after it.

        ``None`` when there is no fault window or nothing ever commits
        after the repair (the chain never recovered).
        """
        if fault_end is None:
            window = self.fault_window()
            if window is None:
                return None
            fault_end = window[1]
        after = [r.committed_at for r in self.records
                 if r.committed and r.committed_at >= fault_end]
        if not after:
            return None
        return min(after) - fault_end

    def retries_per_transaction(self) -> float:
        """Average client resubmissions per submitted transaction."""
        if not self.records:
            return 0.0
        return sum(r.retries for r in self.records) / len(self.records)

    def degradation(self) -> Optional[Dict[str, Any]]:
        """Before/during/after availability around the fault window.

        The robustness report for a faulted run: commit ratios in the three
        phases, the time from repair to the first post-repair commit, and
        the client retry burden. ``None`` when the run had no faults.
        """
        window = self.fault_window()
        if window is None:
            return None
        start, end = window
        ttr = self.time_to_recover(end)
        return {
            "fault_window": [start, end],
            "commit_ratio_before": round(
                self.commit_ratio_between(0.0, start), 4),
            "commit_ratio_during": round(
                self.commit_ratio_between(start, end), 4),
            "commit_ratio_after": round(
                self.commit_ratio_between(end, self.duration), 4),
            "time_to_recover_s": None if ttr is None else round(ttr, 3),
            "retries_per_tx": round(self.retries_per_transaction(), 4),
        }

    # -- overload accounting -------------------------------------------------------------

    def stalled_at(self) -> Optional[float]:
        """Start of the stall the run ended in, or None if it kept going."""
        for event in reversed(self.liveness_events):
            if event["kind"] == "progress_resumed":
                return None
            if event["kind"] == "stall_detected":
                return event.get("stalled_since", event["at"])
        return None

    # -- abort accounting ----------------------------------------------------------------

    def abort_reasons(self) -> Dict[str, int]:
        """Abort reason -> count, in order of first occurrence."""
        return dict(Counter(r.abort_reason for r in self.records
                            if r.aborted and r.abort_reason))

    def execution_failed(self) -> bool:
        """True when the chain could not execute the DApp at all (Fig. 5's X).

        Matches the paper's criterion: the client only ever sees "budget
        exceeded" errors and no transaction of the workload commits.
        """
        budget_failures = self.abort_reasons().get("budget_exceeded", 0)
        return budget_failures > 0 and not any(
            r.committed for r in self.records)

    # -- serialization ------------------------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        submitted = len(self.records)
        committed = self._committed()
        in_window = _latencies(committed, self.duration)
        summary: Dict[str, Any] = {
            "chain": self.chain,
            "configuration": self.configuration,
            "workload": self.workload_name,
            "duration": self.duration,
            "scale": self.scale,
            "submitted": submitted,
            "average_load_tps": round(self._rate(submitted), 2),
            "average_throughput_tps": round(self._rate(in_window.size), 2),
            "average_latency_s": round(_mean(in_window), 3)
            if submitted else None,
            "median_latency_s": round(_median(in_window), 3)
            if submitted else None,
            "commit_ratio": round(_ratio(len(committed), submitted), 4),
            "aborts": self.abort_reasons(),
            "chain_stats": self.chain_stats,
            "status": self.status,
        }
        if self.fault_events:
            summary["fault_events"] = self.fault_events
            summary["degradation"] = self.degradation()
        if self.liveness_events:
            summary["liveness_events"] = self.liveness_events
        if self.overload_events:
            summary["overload_events"] = self.overload_events
        if self.timeseries:
            summary["timeseries"] = self.timeseries
        if self.economics:
            summary["economics"] = self.economics
        if self.population:
            summary["population"] = self.population
        return summary

    def to_json(self) -> str:
        """The run's JSON file: ``{"summary": ..., "transactions": [...]}``.

        Byte-for-byte what ``json.dumps`` of the whole payload writes: one
        join of :meth:`json_parts`. The returned string is the only full
        copy of the rows.
        """
        return "".join(self.json_parts())

    def json_parts(self) -> List[str]:
        """The pieces whose concatenation is :meth:`to_json`'s document.

        The head (the summary, up to the first row's uid), then two pieces
        per row: the uid's digits and the text of its other nine fields,
        its tail, up to the next row's uid; the last row's tail closes the
        document. Every transaction that entered in the same tick and
        committed in the same block shares a tail, so each distinct tail's
        text is encoded once per call (:class:`_TailTexts`) and shared. A
        result cache writes these pieces to its entry a slice at a time,
        never holding the whole document.
        """
        records = self.records
        head = _SUMMARY_OPEN + json.dumps(self.summary()) + _SUMMARY_CLOSE
        if not records:
            return [head + _DOCUMENT_CLOSE]
        keys = zip(map(_tail, records),
                   map(type, map(_submitted_at, records)),
                   map(type, map(_committed_at, records)))
        parts = [head + _ROW_OPEN]
        parts += itertools.chain.from_iterable(zip(
            map(str, map(_uid, records)), map(_TailTexts().__getitem__, keys)))
        # the last row closes the document instead of opening another row
        parts[-1] = parts[-1][:-len(_ROW_JOIN)] + _DOCUMENT_CLOSE
        return parts

    @staticmethod
    def summary_from_json(text: str) -> Dict[str, Any]:
        """The ``summary`` of a :meth:`to_json` document, records unparsed.

        Decodes the one JSON value :meth:`to_json` writes first and checks
        that the transaction list opens after it and closes the document;
        what lies between is not read (:meth:`from_json` does that).
        Raises :class:`ValueError` on a text that is not such a document.
        """
        return BenchmarkResult.summary_from_head(iter((text,)), text)

    @staticmethod
    def summary_from_head(head: Iterator[str], tail: str) -> Dict[str, Any]:
        """The ``summary`` of a document given as its head and its tail.

        *head* yields the document's text from its start, piece after
        piece; pieces are taken only until the summary and the opening of
        the transaction list have been read. *tail* is the document's end
        (at least its last two characters). The checks are those of
        :meth:`summary_from_json`, which passes the whole text as both.
        """
        if not tail.endswith(_DOCUMENT_CLOSE):
            raise ValueError("not a result document")
        text = ""
        for piece in head:
            text += piece
            if not text.startswith(_SUMMARY_OPEN[:len(text)]):
                break
            try:
                summary, end = _DECODER.raw_decode(text, len(_SUMMARY_OPEN))
            except ValueError:
                continue                  # cut short, or not JSON at all
            if not isinstance(summary, dict):
                break
            if len(text) >= end + len(_SUMMARY_CLOSE):
                if text.startswith(_SUMMARY_CLOSE, end):
                    return summary
                break
        raise ValueError("not a result document")

    @staticmethod
    def from_json(text: str) -> "BenchmarkResult":
        payload = json.loads(text)
        summary = payload["summary"]
        return BenchmarkResult(
            chain=summary["chain"],
            configuration=summary["configuration"],
            workload_name=summary["workload"],
            duration=summary["duration"],
            scale=summary["scale"],
            records=[TransactionRecord(**raw)
                     for raw in payload["transactions"]],
            chain_stats=summary.get("chain_stats", {}),
            fault_events=summary.get("fault_events", []),
            status=summary.get("status", "ok"),
            liveness_events=summary.get("liveness_events", []),
            overload_events=summary.get("overload_events", []),
            timeseries=summary.get("timeseries", []),
            economics=summary.get("economics", {}),
            population=summary.get("population", {}))


def _ratio(count: int, total: int) -> float:
    return count / total if total else 0.0


def _latencies(committed: List[TransactionRecord],
               window: Optional[float]) -> np.ndarray:
    """Latencies of *committed* records (landing within *window*, if given)."""
    return np.array([r.committed_at - r.submitted_at for r in committed
                     if window is None or r.committed_at <= window],
                    dtype=float)


def _mean(latencies: np.ndarray) -> float:
    return float(latencies.mean()) if latencies.size else float("nan")


def _median(latencies: np.ndarray) -> float:
    return float(np.median(latencies)) if latencies.size else float("nan")
