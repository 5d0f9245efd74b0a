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
(hits are instant replays, no worker involved) and writes misses back
after they complete, so workers never touch the cache directory.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.results import BenchmarkResult
from repro.core.runner import run_benchmark, run_trace
from repro.obs import MetricsRegistry
from repro.sweep.cache import ResultCache, cell_key, cell_key_fields
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
    result_json: Optional[str] = None
    failure: Optional[CellFailure] = None
    _result: Optional[BenchmarkResult] = field(
        default=None, repr=False, compare=False)

    @property
    def result(self) -> Optional[BenchmarkResult]:
        """The parsed result (lazily deserialized), if the run produced one."""
        if self._result is None and self.result_json is not None:
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
                if o.result_json is not None}

    def summary_line(self) -> str:
        """The one-line verdict the CLI (and CI) key off."""
        done = sum(1 for o in self.outcomes if o.status == "done")
        return (f"cells: {len(self.outcomes)}  done: {done}"
                f"  failed: {len(self.failures)}"
                f"  cache: {self.cache_hits} hits, {self.cache_misses} misses"
                f"  wall: {self.wall_seconds:.1f}s"
                f"  workers: {self.workers}")


def _execute_cell(cell: SweepCell) -> Tuple[int, Optional[str],
                                            Optional[CellFailure], float]:
    """Run one cell; never raises. Returns (index, json, failure, wall)."""
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
                watchdog_window=options.watchdog_window,
                observe=options.observe)
        else:
            result = run_trace(
                cell.chain, cell.configuration, cell.trace,
                accounts=options.accounts, clients=options.clients,
                scale=cell.scale, seed=cell.seed, drain=options.drain,
                max_sim_seconds=options.max_sim_seconds,
                watchdog_window=options.watchdog_window,
                observe=options.observe)
    except Exception as exc:  # noqa: BLE001 — isolation is the whole point
        failure = CellFailure(
            kind="crash",
            error_type=type(exc).__name__,
            message=str(exc),
            traceback_text=traceback.format_exc())
        return cell.index, None, failure, time.perf_counter() - start
    wall = time.perf_counter() - start
    result_json = result.to_json()
    if result.status == "failed":
        failure = CellFailure(
            kind="watchdog",
            error_type="RunFailed",
            message=(f"run marked failed (liveness watchdog / deadline);"
                     f" commit_ratio={result.commit_ratio:.4f}"))
        return cell.index, result_json, failure, wall
    return cell.index, result_json, None, wall


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
      deterministic outcomes) are written back. Crashed cells are never
      cached. An entry that does not parse as a result is a miss (also
      counted in ``sweep.cache.corrupt``) and is overwritten by the re-run.
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
    for cell in cells:
        cells_counter.inc()
        if cache is not None:
            key = cell_key(cell)
            keys[cell.index] = key
            result = None
            cached_json = cache.get(key)
            if cached_json is not None:
                try:
                    result = BenchmarkResult.from_json(cached_json)
                except (ValueError, KeyError, TypeError):
                    # an entry whose body is not a result is a miss: the
                    # cell re-runs and finish() overwrites the entry
                    corrupt_counter.inc()
            if result is not None:
                hits_counter.inc()
                status = "failed" if result.status == "failed" else "done"
                failure = None
                if status == "failed":
                    failures_counter.inc()
                    failure = CellFailure(
                        kind="watchdog", error_type="RunFailed",
                        message="cached run was marked failed")
                outcomes[cell.index] = CellOutcome(
                    cell=cell, status=status, cached=True, wall_seconds=0.0,
                    result_json=cached_json, failure=failure, _result=result)
                emit(CellEvent(status, cell, cached=True, wall_seconds=0.0,
                               detail="cache hit"))
                continue
            misses_counter.inc()
        pending.append(cell)

    def finish(index: int, result_json: Optional[str],
               failure: Optional[CellFailure], wall: float) -> None:
        cell = cells[index]
        cell_wall.observe(wall)
        status = "done" if failure is None else "failed"
        if failure is not None:
            failures_counter.inc()
        if (cache is not None and result_json is not None):
            cache.put(keys[index], cell_key_fields(cell), result_json)
        outcomes[index] = CellOutcome(
            cell=cell, status=status, cached=False, wall_seconds=wall,
            result_json=result_json, failure=failure)
        detail = "cache miss" if cache is not None else ""
        if failure is not None:
            detail = (detail + "; " if detail else "") + str(failure)
        emit(CellEvent(status, cell, cached=False, wall_seconds=wall,
                       detail=detail))

    if workers == 1 or len(pending) <= 1:
        for cell in pending:
            emit(CellEvent("running", cell))
            finish(*_execute_cell(cell))
    else:
        pool_size = min(workers, len(pending))
        with multiprocessing.Pool(processes=pool_size) as pool:
            for completed in pool.imap_unordered(_execute_cell, pending):
                finish(*completed)

    ordered = [outcomes[i] for i in range(len(cells))]
    return SweepResult(
        spec=spec,
        outcomes=ordered,
        wall_seconds=time.perf_counter() - start,
        workers=workers,
        metrics=dict(registry.sample()))
