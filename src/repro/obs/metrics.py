"""Namespaced metrics registry sampled on the simulated clock.

One :class:`MetricsRegistry` per experiment replaces the ad-hoc stat dicts
that used to be scattered over the mempool, the admission controller, the
machines, the network and the blockchain runtime. Components register
**counters** (monotonic totals), **gauges** (instantaneous levels), either
kept by the metric or read through a supplier callable, and **histograms**
(distributions with percentile queries) under dotted namespaces such as
``mempool.admitted`` or ``chain.dropped.expired``.

The registry is deterministic: it never reads the wall clock, and sampling
it is a pure read (suppliers must be side-effect free). A
:class:`MetricsSampler` snapshots every counter and gauge periodically on
the *simulated* clock, producing the ``timeseries`` rows that land in
:class:`~repro.core.results.BenchmarkResult`.

BLOCKBENCH makes per-layer metrics a first-class benchmark output; this
module is the same layer for the reproduction — see also
:func:`MetricsRegistry.prometheus` for the text exposition format.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Union

from repro.common.errors import ConfigurationError, SimulationError
from repro.common.stats import quantile

if TYPE_CHECKING:  # sim.machine imports this module; avoid the cycle
    from repro.sim.engine import Engine

Number = Union[int, float]


class Counter:
    """A monotonically increasing total (events, bytes, drops...).

    With a *supplier* the total is kept by its owner and read on demand,
    like a supplier-backed :class:`Gauge`: a component that counts on a
    per-transaction path adds to a plain int instead of calling
    :meth:`inc`, and keeps it monotonic itself.
    """

    __slots__ = ("name", "_value", "_supplier")

    def __init__(self, name: str,
                 supplier: Optional[Callable[[], Number]] = None) -> None:
        self.name = name
        self._value: Number = 0
        self._supplier = supplier

    def inc(self, amount: Number = 1) -> None:
        if amount < 0:
            raise SimulationError(
                f"counter {self.name} cannot decrease (inc {amount})")
        if self._supplier is not None:
            raise SimulationError(
                f"counter {self.name} is supplier-backed; cannot inc()")
        self._value += amount

    @property
    def value(self) -> Number:
        if self._supplier is not None:
            return self._supplier()
        return self._value


class Gauge:
    """An instantaneous level: set explicitly or read via a supplier."""

    __slots__ = ("name", "_value", "_supplier")

    def __init__(self, name: str,
                 supplier: Optional[Callable[[], Number]] = None) -> None:
        self.name = name
        self._value: Number = 0
        self._supplier = supplier

    def set(self, value: Number) -> None:
        if self._supplier is not None:
            raise SimulationError(
                f"gauge {self.name} is supplier-backed; cannot set()")
        self._value = value

    def add(self, delta: Number) -> None:
        if self._supplier is not None:
            raise SimulationError(
                f"gauge {self.name} is supplier-backed; cannot add()")
        self._value += delta

    @property
    def value(self) -> Number:
        if self._supplier is not None:
            return self._supplier()
        return self._value


def weak_supplier(owner: Any, read: Callable[[Any], Number]
                  ) -> Callable[[], Number]:
    """A supplier returning ``read(owner)`` without keeping *owner*
    alive; it reads 0 once *owner* is gone.

    A component that registers into a namespace it holds, with a supplier
    closing over itself, makes a reference cycle (registry, gauge,
    supplier, component, namespace, registry) that only the cyclic
    collector frees, and with it everything the component holds. A
    supplier that reads a state object the component owns (its ledger,
    its pool) closes no cycle and needs no weak reference.
    """
    ref = weakref.ref(owner)

    def supplier() -> Number:
        target = ref()
        return 0 if target is None else read(target)
    return supplier


class Histogram:
    """A distribution of observations with percentile queries.

    Observations are kept in full (simulation scale keeps them small); the
    Prometheus dump exposes count/sum and the usual latency quantiles.
    """

    __slots__ = ("name", "_values")

    def __init__(self, name: str) -> None:
        self.name = name
        self._values: List[float] = []

    def observe(self, value: float) -> None:
        self._values.append(float(value))

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def sum(self) -> float:
        return float(sum(self._values))

    @property
    def mean(self) -> float:
        return self.sum / self.count if self._values else float("nan")

    def percentile(self, q: float) -> float:
        if not self._values:
            return float("nan")
        return quantile(sorted(self._values), q / 100)

    def values(self) -> List[float]:
        return list(self._values)


class MetricsRegistry:
    """One flat, namespaced home for every metric of an experiment."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Union[Counter, Gauge, Histogram]] = {}

    # -- registration --------------------------------------------------------------

    def _get(self, name: str, kind: type, factory) -> Any:
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
            return metric
        if not isinstance(metric, kind):
            raise ConfigurationError(
                f"metric {name!r} is a {type(metric).__name__},"
                f" not a {kind.__name__}")
        return metric

    def counter(self, name: str,
                supplier: Optional[Callable[[], Number]] = None) -> Counter:
        """Get or create the counter *name* (idempotent per name)."""
        return self._get(name, Counter, lambda: Counter(name, supplier))

    def gauge(self, name: str,
              supplier: Optional[Callable[[], Number]] = None) -> Gauge:
        """Get or create the gauge *name* (idempotent per name)."""
        gauge = self._get(name, Gauge, lambda: Gauge(name, supplier))
        return gauge

    def histogram(self, name: str) -> Histogram:
        """Get or create the histogram *name*."""
        return self._get(name, Histogram, lambda: Histogram(name))

    def namespace(self, prefix: str) -> "MetricsNamespace":
        """A view of this registry with every name prefixed ``prefix.``."""
        return MetricsNamespace(self, prefix)

    # -- reading -------------------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def get(self, name: str) -> Optional[Union[Counter, Gauge, Histogram]]:
        return self._metrics.get(name)

    def value(self, name: str) -> Number:
        metric = self._metrics[name]
        if isinstance(metric, Histogram):
            return metric.count
        return metric.value

    def sample(self) -> Dict[str, Number]:
        """Snapshot every counter and gauge (histograms as their count)."""
        row: Dict[str, Number] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Histogram):
                row[name] = metric.count
            else:
                row[name] = metric.value
        return row

    # -- exposition ----------------------------------------------------------------

    def prometheus(self, prefix: str = "repro",
                   labels: Optional[Dict[str, str]] = None) -> str:
        """Prometheus text exposition of every metric.

        Dots in metric names become underscores; *labels* are attached to
        every sample (e.g. ``{chain="ethereum"}``). Histograms export as
        summaries with count, sum and p50/p95/p99 quantiles.
        """
        label_text = ""
        if labels:
            inner = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
            label_text = "{" + inner + "}"

        def fmt(value: Number) -> str:
            if isinstance(value, float):
                return repr(value)
            return str(value)

        lines: List[str] = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            flat = f"{prefix}_{name}".replace(".", "_").replace("-", "_")
            if isinstance(metric, Counter):
                lines.append(f"# TYPE {flat} counter")
                lines.append(f"{flat}{label_text} {fmt(metric.value)}")
            elif isinstance(metric, Gauge):
                lines.append(f"# TYPE {flat} gauge")
                lines.append(f"{flat}{label_text} {fmt(metric.value)}")
            else:
                lines.append(f"# TYPE {flat} summary")
                for q in (50, 95, 99):
                    quantile = q / 100.0
                    joiner = "," if labels else ""
                    inner = (label_text[1:-1] + joiner if labels else "")
                    value = metric.percentile(q)
                    lines.append(
                        f'{flat}{{{inner}quantile="{quantile}"}} {value!r}')
                lines.append(f"{flat}_count{label_text} {metric.count}")
                lines.append(f"{flat}_sum{label_text} {metric.sum!r}")
        return "\n".join(lines) + "\n"


class MetricsNamespace:
    """Prefix view over a :class:`MetricsRegistry` (``prefix.name``)."""

    __slots__ = ("registry", "prefix")

    def __init__(self, registry: MetricsRegistry, prefix: str) -> None:
        self.registry = registry
        self.prefix = prefix

    def _full(self, name: str) -> str:
        return f"{self.prefix}.{name}"

    def counter(self, name: str,
                supplier: Optional[Callable[[], Number]] = None) -> Counter:
        return self.registry.counter(self._full(name), supplier)

    def gauge(self, name: str,
              supplier: Optional[Callable[[], Number]] = None) -> Gauge:
        return self.registry.gauge(self._full(name), supplier)

    def histogram(self, name: str) -> Histogram:
        return self.registry.histogram(self._full(name))

    def namespace(self, prefix: str) -> "MetricsNamespace":
        return MetricsNamespace(self.registry, self._full(prefix))

    def counters_with_prefix(self, prefix: str) -> Dict[str, Number]:
        """``{suffix: value}`` for counters under ``<namespace>.<prefix>.``."""
        base = self._full(prefix) + "."
        out: Dict[str, Number] = {}
        for name in self.registry.names():
            metric = self.registry.get(name)
            if name.startswith(base) and isinstance(metric, Counter):
                out[name[len(base):]] = metric.value
        return out


class MetricsSampler:
    """Snapshot a registry periodically on the simulated clock.

    Sampling is an observation only: it schedules its own tick events (so
    the engine's event count grows) but reads no RNG and never perturbs
    simulation state, keeping traced runs outcome-identical to untraced
    ones.
    """

    def __init__(self, engine: Engine, registry: MetricsRegistry,
                 period: float = 1.0) -> None:
        if period <= 0:
            raise ConfigurationError(
                f"sample period must be positive: {period}")
        self.engine = engine
        self.registry = registry
        self.period = period
        self.samples: List[Dict[str, Any]] = []
        from repro.sim.engine import PeriodicTask  # deferred: import cycle
        self._task = PeriodicTask(engine, period, self._tick,
                                  label="metrics-sampler")

    def _tick(self) -> None:
        row: Dict[str, Any] = {"t": round(self.engine.now, 6)}
        row.update(self.registry.sample())
        self.samples.append(row)

    def stop(self) -> None:
        self._task.stop()


@dataclass(frozen=True)
class ObservabilityOptions:
    """What to observe during a run (all observation, zero perturbation).

    ``trace``          attach a :class:`~repro.obs.trace.LifecycleTracer`
                       to the chain
    ``profile``        attach an :class:`~repro.obs.profiler.EngineProfiler`
                       to the engine (the one consumer of wall-clock time)
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
