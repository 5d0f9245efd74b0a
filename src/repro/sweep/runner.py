"""Parallel sweep execution with per-cell failure isolation.

Each cell runs one :func:`repro.core.runner.run_trace` — or, on the
``populations`` axis, one :func:`repro.core.runner.run_benchmark` over
the trace's population spec (see docs/SCALE.md) — in its own process
(``--workers N``) or inline (``--workers 1``); either way a cell is an
independent simulation with its own engine and seed, so the per-cell
``BenchmarkResult`` JSON is byte-identical regardless of worker count. A crashed cell — an exception anywhere in the stack — or a
watchdog-failed run is captured as a typed :class:`CellFailure`; it never
takes the sweep down with it.

Cache discipline: the parent process resolves hits before dispatching
(hits are instant replays, no worker involved). A miss is streamed into
its cache entry by whoever ran it, a worker or the parent inline, so a
document never crosses the pool's result pipe and is never whole in
memory: the worker sends back the summary, read back from the entry by
the parser a hit uses, and the :class:`~repro.sweep.cache.CacheEntry` it
wrote. A finished run leaves no reference cycle, so its cell is freed
before the worker runs the next one.

A cell's outcome is built in one place, :func:`_outcome`, from the
document's summary, whether a worker just produced it or the cache
returned it: status, the watchdog :class:`CellFailure` and
``CellOutcome.summary``, so a replay reports what the run reported and
parses no transaction record. With a cache, an outcome holds only the
entry, and ``CellOutcome.result_json`` reads the document from disk
each time it is asked for (checking its digest again); without one, the
outcome holds the text. ``CellOutcome.result`` parses the records when
somebody asks for them.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    Tuple, Union)

from repro.core.results import BenchmarkResult
from repro.core.runner import run_benchmark, run_trace
from repro.obs.metrics import MetricsRegistry
from repro.sweep.cache import CacheEntry, cell_key, cell_key_fields

if TYPE_CHECKING:
    from repro.sweep.cache import ResultCache
    from repro.sweep.spec import SweepCell, SweepSpec

#: progress-event kinds, in lifecycle order
EVENT_KINDS = ("queued", "running", "done", "failed")


@dataclass(frozen=True)
class CellFailure:
    """Why a cell did not produce a clean result.

    ``kind`` is ``"crash"`` (an exception escaped the run — the traceback
    is preserved) or ``"watchdog"`` (the run completed but the liveness
    watchdog / deadline marked it ``failed``; the failed run's result
    JSON is still available on the outcome).
    """

    kind: str
    error_type: str
    message: str
    traceback_text: str = ""

    def __str__(self) -> str:
        return f"{self.error_type}: {self.message}"


@dataclass
class CellOutcome:
    """What happened to one cell of the sweep."""

    cell: SweepCell
    status: str                       # "done" | "failed"
    cached: bool
    wall_seconds: float
    failure: Optional[CellFailure] = None
    #: the result document's ``summary`` (None for a crashed cell): what
    #: the sweep report reads, so a replay parses nothing else
    summary: Optional[Dict[str, Any]] = None
    #: where the result document is: the cache entry holding it when the
    #: sweep had a cache, else its text (None for a crashed cell)
    document: Union[CacheEntry, str, None] = field(default=None, repr=False)
    _result: Optional[BenchmarkResult] = field(
        default=None, repr=False, compare=False)

    @property
    def result_json(self) -> Optional[str]:
        """The result document's text, None for a crashed cell.

        Read from the cache entry on every call when the sweep had a
        cache; raises :class:`~repro.sweep.cache.CacheEntryError` if the
        entry has since been deleted or rewritten with other bytes.
        """
        if isinstance(self.document, CacheEntry):
            return self.document.read()
        return self.document

    @property
    def result(self) -> Optional[BenchmarkResult]:
        """The parsed result (lazily deserialized), if the run produced one."""
        if self._result is None and self.summary is not None:
            self._result = BenchmarkResult.from_json(self.result_json)
        return self._result


@dataclass(frozen=True)
class CellEvent:
    """One progress notification streamed while a sweep executes."""

    kind: str                         # queued | running | done | failed
    cell: SweepCell
    cached: Optional[bool] = None
    wall_seconds: Optional[float] = None
    detail: str = ""


ProgressCallback = Callable[[CellEvent], None]


@dataclass
class SweepResult:
    """Every cell outcome, in deterministic cell order, plus sweep metrics."""

    spec: SweepSpec
    outcomes: List[CellOutcome]
    wall_seconds: float
    workers: int
    metrics: Dict[str, float] = field(default_factory=dict)

    @property
    def cache_hits(self) -> int:
        return sum(1 for o in self.outcomes if o.cached)

    @property
    def cache_misses(self) -> int:
        return len(self.outcomes) - self.cache_hits

    @property
    def failures(self) -> List[CellOutcome]:
        return [o for o in self.outcomes if o.status == "failed"]

    def results(self) -> Dict[str, BenchmarkResult]:
        """Label → result for every cell that produced one."""
        return {o.cell.label: o.result for o in self.outcomes
                if o.summary is not None}

    def summary_line(self) -> str:
        """The one-line verdict the CLI (and CI) key off."""
        done = sum(1 for o in self.outcomes if o.status == "done")
        return (f"cells: {len(self.outcomes)}  done: {done}"
                f"  failed: {len(self.failures)}"
                f"  cache: {self.cache_hits} hits, {self.cache_misses} misses"
                f"  wall: {self.wall_seconds:.1f}s"
                f"  workers: {self.workers}")


def _outcome(cell: SweepCell, summary: Dict[str, Any],
             document: Union[CacheEntry, str], cached: bool,
             wall_seconds: float) -> CellOutcome:
    """The outcome of a cell whose document has *summary*, fresh or cached.

    Raises :class:`KeyError` if *summary* lacks what a result's has.
    """
    failure = None
    if summary["status"] == "failed":
        failure = CellFailure(
            kind="watchdog",
            error_type="RunFailed",
            message=(f"run marked failed (liveness watchdog / deadline);"
                     f" commit_ratio={summary['commit_ratio']:.4f}"))
    return CellOutcome(
        cell=cell, status="done" if failure is None else "failed",
        cached=cached, wall_seconds=wall_seconds, failure=failure,
        summary=summary, document=document)


#: what :func:`_execute_cell` returns: the cell's index, its wall time,
#: and either the crash or the run's summary and document
_Ran = Tuple[int, float, Optional[CellFailure], Optional[Dict[str, Any]],
             Union[CacheEntry, str, None]]


def _execute_cell(job: Tuple[SweepCell, Optional[ResultCache],
                             Optional[str]]) -> _Ran:
    """Run the cell of *job* = (cell, cache, key), in a worker or inline.

    A crash is captured, never raised. With a cache, the document is
    written to the cell's entry here and the entry is returned in its
    place; only a failed write raises, as it would in the parent.
    """
    cell, cache, key = job
    start = time.perf_counter()
    options = cell.options
    try:
        if cell.population is not None:
            spec = cell.trace.population_spec(
                cell.population, rate_per_user=options.rate_per_user,
                accounts=options.accounts, cohort=options.cohort)
            result = run_benchmark(
                cell.chain, cell.configuration, spec,
                workload_name=f"{cell.trace.name}-pop{cell.population}",
                scale=cell.scale, seed=cell.seed, drain=options.drain,
                max_sim_seconds=options.max_sim_seconds,
                watchdog_window=options.watchdog_window)
        else:
            result = run_trace(
                cell.chain, cell.configuration, cell.trace,
                accounts=options.accounts, clients=options.clients,
                scale=cell.scale, seed=cell.seed, drain=options.drain,
                max_sim_seconds=options.max_sim_seconds,
                watchdog_window=options.watchdog_window)
    except Exception as exc:  # noqa: BLE001 — isolation is the whole point
        failure = CellFailure(
            kind="crash",
            error_type=type(exc).__name__,
            message=str(exc),
            traceback_text=traceback.format_exc())
        return cell.index, time.perf_counter() - start, failure, None, None
    wall = time.perf_counter() - start
    if cache is None:
        text = result.to_json()
        return (cell.index, wall, None,
                BenchmarkResult.summary_from_json(text), text)
    # streamed: the document's text is never whole in memory
    entry = cache.put(key, cell_key_fields(cell), result.json_parts())
    return cell.index, wall, None, entry.summary(), entry


def run_sweep(spec: SweepSpec, workers: int = 1,
              cache: Optional[ResultCache] = None,
              progress: Optional[ProgressCallback] = None) -> SweepResult:
    """Execute every cell of *spec*, streaming progress events.

    * ``workers=1`` runs cells inline, in cell order.
    * ``workers>1`` fans misses out over a ``multiprocessing`` pool; cells
      complete in any order but the returned outcomes are always in cell
      order, and each cell's result JSON is byte-identical to a
      single-worker run.
    * With a *cache*, cells whose key is already on disk are replayed
      instantly; fresh results (including watchdog-failed ones, which are
      deterministic outcomes) are written to their entries by whoever ran
      them. Crashed cells are never cached. An entry the cache refuses, or
      whose body is not a result document, is a miss (also counted in
      ``sweep.cache.corrupt``) and is overwritten by the re-run. Every
      outcome then holds its cache entry, not its document: the entry
      must outlive the reads of ``result_json`` and ``result``.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    start = time.perf_counter()
    cells = spec.cells()
    registry = MetricsRegistry()
    sweep_metrics = registry.namespace("sweep")
    sweep_metrics.gauge("workers").set(workers)
    cells_counter = sweep_metrics.counter("cells")
    hits_counter = sweep_metrics.counter("cache.hits")
    misses_counter = sweep_metrics.counter("cache.misses")
    corrupt_counter = sweep_metrics.counter("cache.corrupt")
    failures_counter = sweep_metrics.counter("failures")
    cell_wall = sweep_metrics.histogram("cell_wall_seconds")

    def emit(event: CellEvent) -> None:
        if progress is not None:
            progress(event)

    for cell in cells:
        emit(CellEvent("queued", cell))

    outcomes: Dict[int, CellOutcome] = {}
    pending: List[SweepCell] = []
    keys: Dict[int, str] = {}

    def finish(outcome: CellOutcome) -> None:
        cell = outcome.cell
        outcomes[cell.index] = outcome
        if outcome.failure is not None:
            failures_counter.inc()
        notes = []
        if cache is not None:
            notes.append("cache hit" if outcome.cached else "cache miss")
        if outcome.failure is not None:
            notes.append(str(outcome.failure))
        emit(CellEvent(outcome.status, cell, cached=outcome.cached,
                       wall_seconds=outcome.wall_seconds,
                       detail="; ".join(notes)))

    corrupt_before = 0 if cache is None else cache.corrupt
    for cell in cells:
        cells_counter.inc()
        if cache is not None:
            key = cell_key(cell)
            keys[cell.index] = key
            entry = cache.get(key)
            if entry is not None:
                try:
                    hit = _outcome(cell, entry.summary(), entry, cached=True,
                                   wall_seconds=0.0)
                except (ValueError, KeyError):
                    # a body that is not a result document is a miss: the
                    # cell re-runs and the entry is overwritten
                    corrupt_counter.inc()
                else:
                    hits_counter.inc()
                    finish(hit)
                    continue
            misses_counter.inc()
        pending.append(cell)
    if cache is not None:
        corrupt_counter.inc(cache.corrupt - corrupt_before)

    def ran(index: int, wall: float, crash: Optional[CellFailure],
            summary: Optional[Dict[str, Any]],
            document: Union[CacheEntry, str, None]) -> None:
        cell = cells[index]
        cell_wall.observe(wall)
        if crash is not None:
            finish(CellOutcome(cell=cell, status="failed", cached=False,
                               wall_seconds=wall, failure=crash))
            return
        finish(_outcome(cell, summary, document, cached=False,
                        wall_seconds=wall))

    jobs = [(cell, cache, keys.get(cell.index)) for cell in pending]
    if workers == 1 or len(pending) <= 1:
        for job in jobs:
            emit(CellEvent("running", job[0]))
            ran(*_execute_cell(job))
    else:
        pool_size = min(workers, len(pending))
        with multiprocessing.Pool(processes=pool_size) as pool:
            for completed in pool.imap_unordered(_execute_cell, jobs):
                ran(*completed)

    ordered = [outcomes[i] for i in range(len(cells))]
    return SweepResult(
        spec=spec,
        outcomes=ordered,
        wall_seconds=time.perf_counter() - start,
        workers=workers,
        metrics=dict(registry.sample()))
