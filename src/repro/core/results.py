"""Benchmark results: per-transaction records and aggregates.

The DIABLO Primary aggregates, from every Secondary, "the start time and end
time of each transaction" into a JSON file (§4); summary statistics and time
series are computed post-mortem. :class:`BenchmarkResult` is that JSON
file's in-memory form, with the aggregations the paper reports: average
load, average throughput, average/median latency, the proportion of
committed transactions, per-second time series and latency CDFs. Its
records are a :class:`RecordTable`: columns, not one tuple per
transaction.
"""

from __future__ import annotations

import itertools
import json
from array import array
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from operator import is_not, itemgetter
from typing import (TYPE_CHECKING, Any, Dict, Iterable, Iterator, List,
                    NamedTuple, Optional, Tuple)

import numpy as np

from repro.common.stats import median, quantile

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


#: a record's fields after ``uid``, in document order
_ROW_FIELDS = TransactionRecord._fields[1:]
#: what opens a row, up to its uid's digits
_ROW_OPEN = '{"uid": '
#: what lies between one row's close and the next row's uid
_ROW_JOIN = ", " + _ROW_OPEN
#: a record's *tail*: every field but ``uid`` and the two timestamps
_tail = itemgetter(1, 2, 3, 4, 7, 8, 9)
_first = itemgetter(0)
#: rows :meth:`RecordTable.extend` takes at a time from an iterable that
#: is not a list
_SPREAD_ROWS = 4096


class _TailIds(dict):
    """A record's tail -> its index in *tails*, the distinct tails in the
    order they were first seen; a new tail is appended on its lookup."""

    def __init__(self, tails: List[tuple]) -> None:
        super().__init__()
        self.tails = tails

    def __missing__(self, tail: tuple) -> int:
        index = self[tail] = len(self.tails)
        self.tails.append(tail)
        return index


class RecordTable(Sequence):
    """A run's :class:`TransactionRecord` rows, kept as columns.

    ``uid``, ``submitted_at`` and ``committed_at`` are lists, so they
    share the transactions' own int and float objects and keep each
    value's type; ``tail`` is an ``array('I')`` of indices into
    ``tails``, the distinct ``(kind, contract, function, client, aborted,
    abort_reason, retries)`` tuples, each kept once. A row costs 28 bytes
    of column slots, where a record tuple and its list slot cost 144.

    As a sequence it reads :class:`TransactionRecord` rows: an index or an
    iteration builds them. Rows go in only through the constructor and
    :meth:`extend`, which spreads them into the columns with C-level
    passes, so a caller can drop each batch of rows as soon as it is
    taken. The aggregates of :class:`BenchmarkResult` read the columns
    through numpy.

    Tails are interned by equality, so tail fields hold their declared
    types: ``aborted`` a bool, ``retries`` an int, the rest a str or
    ``None`` (a tail holding ``1`` would read back as an equal interned
    ``True``). The timestamps may be ints or floats.
    """

    __slots__ = ("uid", "submitted_at", "committed_at", "tail", "tails",
                 "_tail_ids")

    def __init__(self, rows: Iterable[Sequence] = ()) -> None:
        self.uid: List[int] = []
        self.submitted_at: List[float] = []
        self.committed_at: List[Optional[float]] = []
        self.tail = array("I")
        self.tails: List[tuple] = []
        self._tail_ids = _TailIds(self.tails)
        self.extend(rows)

    # -- the sequence of rows --------------------------------------------------

    def __len__(self) -> int:
        return len(self.uid)

    def __getitem__(self, index: int) -> TransactionRecord:
        kind, contract, function, client, aborted, reason, retries = (
            self.tails[self.tail[index]])
        return _new_tuple(TransactionRecord, (
            self.uid[index], kind, contract, function, client,
            self.submitted_at[index], self.committed_at[index], aborted,
            reason, retries))

    def __iter__(self) -> Iterator[TransactionRecord]:
        tails = self.tails
        for uid, submitted, committed, tail in zip(
                self.uid, self.submitted_at, self.committed_at, self.tail):
            kind, contract, function, client, aborted, reason, retries = (
                tails[tail])
            yield _new_tuple(TransactionRecord, (
                uid, kind, contract, function, client, submitted,
                committed, aborted, reason, retries))

    def extend(self, rows: Iterable[Sequence]) -> None:
        """Spread *rows* into the columns, with C-level passes only.

        A list is transposed once (``zip(*rows)``). When its rows share
        one tail, as a tick's rows from one client do, that tail is looked
        up once; otherwise each row's is. Any other iterable is taken a
        batch at a time.
        """
        if not isinstance(rows, list):
            rows = iter(rows)
            while batch := list(itertools.islice(rows, _SPREAD_ROWS)):
                self.extend(batch)
            return
        if not rows:
            return
        (uid, kind, contract, function, client, submitted, committed,
         aborted, reason, retries) = zip(*rows)
        self.uid += uid
        self.submitted_at += submitted
        self.committed_at += committed
        tails = (kind, contract, function, client, aborted, reason, retries)
        count = len(rows)
        if all(map(count.__eq__, map(tuple.count, tails, map(_first, tails)))):
            self.tail += array("I", (self._tail_ids[_tail(rows[0])],)) * count
        else:
            self.tail.extend(map(self._tail_ids.__getitem__, zip(*tails)))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RecordTable):
            return (self.uid == other.uid
                    and self.submitted_at == other.submitted_at
                    and self.committed_at == other.committed_at
                    and list(map(self.tails.__getitem__, self.tail))
                    == list(map(other.tails.__getitem__, other.tail)))
        return NotImplemented

    __hash__ = None     # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"RecordTable({list(self)!r})"

    # -- the columns as numpy arrays ---------------------------------------------

    def submitted_times(self, rows: Optional[np.ndarray] = None
                        ) -> np.ndarray:
        """``submitted_at`` as floats: every row's, or those *rows* (a
        mask) selects."""
        if rows is None:
            return np.array(self.submitted_at, dtype=float)
        return _selected(self.submitted_at, rows)

    def committed_times(self, rows: np.ndarray) -> np.ndarray:
        """``committed_at`` as floats, of the rows *rows* (a mask of rows
        that have one, such as :meth:`committed_mask`) selects."""
        return _selected(self.committed_at, rows)

    def committed_mask(self) -> np.ndarray:
        """Per row: committed (a commit time, not aborted)."""
        committed = np.frombuffer(bytes(map(
            is_not, self.committed_at, itertools.repeat(None))), dtype=bool)
        aborted = [tail[4] for tail in self.tails]
        if any(aborted):
            # a copy of the tail column: a live view would stop it growing
            tails = np.frombuffer(self.tail, dtype=np.uint32).astype(np.intp)
            committed = committed & ~np.array(aborted, dtype=bool)[tails]
        return committed

    def tail_counts(self) -> Dict[int, int]:
        """Tail index -> its rows, in the order of each tail's first row."""
        return Counter(self.tail)

    def total_retries(self) -> int:
        tails = self.tails
        return sum(tails[index][6] * count
                   for index, count in self.tail_counts().items())


def _selected(column: List[Any], rows: np.ndarray) -> np.ndarray:
    """The values of *column* in the rows the mask *rows* selects."""
    return np.fromiter(itertools.compress(column, rows.tobytes()),
                       dtype=float, count=int(np.count_nonzero(rows)))


class _TailTexts(dict):
    """``(tail index, submitted_at, committed_at, their types)`` -> row text.

    The text is what ``json.dumps`` writes after a row's uid, from its
    nine other fields through the row's close, followed by
    :data:`_ROW_JOIN`: everything up to the next row's uid. The key
    carries the timestamp types because ``5 == 5.0`` while the two encode
    as ``5`` and ``5.0``. A key holding a float zero is never stored,
    because ``-0.0 == 0.0`` while the two encode apart; such a row is
    encoded on its own. One instance lives for one
    :meth:`BenchmarkResult.json_parts` call, because the table may grow
    between calls.
    """

    def __init__(self, tails: List[tuple]) -> None:
        super().__init__()
        self.tails = tails

    def __missing__(self, key: tuple) -> str:
        tail, submitted, committed = key[:3]
        kind, contract, function, client, aborted, reason, retries = (
            self.tails[tail])
        row = dict(zip(_ROW_FIELDS, (
            kind, contract, function, client, submitted, committed,
            aborted, reason, retries)))
        text = ", " + json.dumps(row)[1:] + _ROW_JOIN
        if 0.0 not in (submitted, committed):
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
    records: RecordTable = field(default_factory=RecordTable)
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

    def _rate(self, count: int) -> float:
        """*count* transactions over the run window, as unscaled TPS."""
        if self.duration <= 0:
            return 0.0
        return self._unscale(count / self.duration)

    @property
    def average_load(self) -> float:
        """Average submitted TPS (the paper's 'average workload')."""
        return self._rate(len(self.records))

    @property
    def average_throughput(self) -> float:
        """Average committed TPS over the run window."""
        return self._rate(self.latencies(self.duration).size)

    @property
    def commit_ratio(self) -> float:
        """Proportion of submitted transactions ever committed."""
        table = self.records
        return _ratio(int(table.committed_mask().sum()), len(table))

    def latencies(self, window: Optional[float] = None) -> np.ndarray:
        table = self.records
        return _latencies(table, table.committed_mask(), window)

    @property
    def average_latency(self) -> float:
        return _mean(self.latencies(self.duration))

    def latency_percentile(self, q: float) -> float:
        lats = self.latencies()
        return quantile(np.sort(lats), q / 100) if lats.size else float("nan")

    # -- time series -------------------------------------------------------------------

    def throughput_series(self, bin_size: float = 1.0) -> Tuple[np.ndarray, np.ndarray]:
        """(bin start times, committed TPS per bin), unscaled."""
        table = self.records
        commits = table.committed_times(table.committed_mask())
        end = self.duration
        bins = np.arange(0.0, end + bin_size, bin_size)
        counts, edges = np.histogram(commits, bins=bins)
        return edges[:-1], self._unscale(counts / bin_size)

    def load_series(self, bin_size: float = 1.0) -> Tuple[np.ndarray, np.ndarray]:
        """(bin start times, submitted TPS per bin), unscaled."""
        submits = self.records.submitted_times()
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
        submits = self.records.submitted_times()
        submitted = int(np.count_nonzero((t0 <= submits) & (submits < t1)))
        if submitted == 0:
            return 0.0
        table = self.records
        commits = table.committed_times(table.committed_mask())
        committed = int(np.count_nonzero((t0 <= commits) & (commits < t1)))
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
        table = self.records
        commits = table.committed_times(table.committed_mask())
        after = commits[commits >= fault_end]
        if not after.size:
            return None
        return float(after.min()) - fault_end

    def retries_per_transaction(self) -> float:
        """Average client resubmissions per submitted transaction."""
        if not self.records:
            return 0.0
        return self.records.total_retries() / len(self.records)

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
        table = self.records
        reasons = {index: tail[5] for index, tail in enumerate(table.tails)
                   if tail[4] and tail[5]}
        if not reasons:
            return {}
        found: Dict[str, int] = {}
        for index, count in table.tail_counts().items():
            reason = reasons.get(index)
            if reason is not None:
                found[reason] = found.get(reason, 0) + count
        return found

    def execution_failed(self) -> bool:
        """True when the chain could not execute the DApp at all (Fig. 5's X).

        Matches the paper's criterion: the client only ever sees "budget
        exceeded" errors and no transaction of the workload commits.
        """
        budget_failures = self.abort_reasons().get("budget_exceeded", 0)
        return (budget_failures > 0
                and not self.records.committed_mask().any())

    # -- serialization ------------------------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        submitted = len(self.records)
        committed = self.records.committed_mask()
        in_window = _latencies(self.records, committed, self.duration)
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
            "commit_ratio": round(
                _ratio(int(committed.sum()), submitted), 4),
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
        per row: the uid's digits and the text of its other nine fields
        up to the next row's uid; the last row's text closes the
        document. Every transaction that entered in the same tick from
        the same client and committed in the same block shares that text,
        so each distinct one is encoded once per call (:class:`_TailTexts`)
        and shared. A result cache writes these pieces to its entry a
        slice at a time, never holding the whole document.
        """
        table = self.records
        head = _SUMMARY_OPEN + json.dumps(self.summary()) + _SUMMARY_CLOSE
        if not table:
            return [head + _DOCUMENT_CLOSE]
        submitted, committed = table.submitted_at, table.committed_at
        keys = zip(table.tail, submitted, committed,
                   map(type, submitted), map(type, committed))
        parts = [head + _ROW_OPEN]
        parts += itertools.chain.from_iterable(zip(
            map(str, table.uid),
            map(_TailTexts(table.tails).__getitem__, keys)))
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
            records=RecordTable(TransactionRecord(**raw)
                                for raw in payload["transactions"]),
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


def _latencies(table: RecordTable, committed: np.ndarray,
               window: Optional[float]) -> np.ndarray:
    """Latencies of the *committed* rows of *table*, in row order (those
    landing within *window*, if given)."""
    commits = table.committed_times(committed)
    latencies = commits - table.submitted_times(committed)
    if window is not None:
        latencies = latencies[commits <= window]
    return latencies


def _mean(latencies: np.ndarray) -> float:
    return float(latencies.mean()) if latencies.size else float("nan")


def _median(latencies: np.ndarray) -> float:
    return median(np.sort(latencies)) if latencies.size else float("nan")
