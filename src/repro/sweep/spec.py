"""Declarative sweep specifications.

A *sweep* is the paper's experiment matrix as data: the cartesian product
of chains × deployment configurations × workload traces × seeds × scale
factors, plus the run options every cell shares. The YAML form::

    sweep:
      chains: [algorand, quorum]
      configurations: [testnet, datacenter]
      workloads: [native-1000, dapp-exchange]
      seeds: [1, 2]
      scales: [0.05]
    options:
      accounts: 2000
      clients: 1
      drain: 240
      watchdog_window: 30

An optional ``populations`` axis turns each workload into a population
run at each listed user count (see docs/SCALE.md): the trace's schedule
becomes the shape of a per-user rate profile whose mean is
``options.rate_per_user``, so offered load grows linearly along the axis
— the knee-finding sweep. ``populations: [null]`` (the default) keeps
the classic client path::

    sweep:
      chains: [ethereum, solana]
      configurations: [testnet]
      workloads: [native-1000]
      populations: [10000, 100000, 1000000]
    options:
      rate_per_user: 0.001
      cohort: 1000

Workload names come from :func:`repro.workloads.workload_registry` (the
same vocabulary as ``python -m repro suite --workload``); programmatic
sweeps may pass :class:`~repro.workloads.traces.Trace` objects directly.

Cell expansion is deterministic: cells are numbered by nesting
chains → configurations → workloads → seeds → scales in the order the
spec lists them, and that numbering is independent of how many workers
later execute the sweep.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, List, Optional, Tuple, Union

import yaml

from repro.blockchains.base import default_scale
from repro.blockchains.registry import CHAIN_NAMES
from repro.common.errors import SpecError
from repro.common.reader import (
    builder_for,
    construct,
    read,
    read_keys,
    read_kwargs,
)
from repro.core.primary import DEFAULT_DRAIN
from repro.core.watchdog import DEFAULT_WINDOW
from repro.obs import ObservabilityOptions
from repro.sim.deployment import CONFIGURATIONS, DeploymentConfig, get_configuration
from repro.workloads import workload_registry
from repro.workloads.traces import Trace


@dataclass(frozen=True)
class CellOptions:
    """Run options shared by every cell of a sweep.

    These mirror the keyword arguments of
    :func:`repro.core.runner.run_trace`; anything that changes the
    benchmark outcome belongs here so it can take part in the cache key.
    """

    accounts: int = 2_000
    clients: int = 1
    drain: float = DEFAULT_DRAIN
    max_sim_seconds: Optional[float] = None
    watchdog_window: float = DEFAULT_WINDOW
    observe: Optional[ObservabilityOptions] = None
    #: population-axis knobs (only read by cells with a population):
    #: tracked-cohort size (None = the population default) and the mean
    #: per-user rate the trace shape is normalized to
    cohort: Optional[int] = None
    rate_per_user: float = 0.001

    def __post_init__(self) -> None:
        if self.accounts <= 0:
            raise SpecError("options.accounts must be positive")
        if self.clients <= 0:
            raise SpecError("options.clients must be positive")
        if self.drain < 0:
            raise SpecError("options.drain cannot be negative")
        if self.cohort is not None and self.cohort <= 0:
            raise SpecError("options.cohort must be positive")
        if self.rate_per_user <= 0:
            raise SpecError("options.rate_per_user must be positive")


@dataclass(frozen=True)
class SweepCell:
    """One (chain, deployment, trace, seed, scale[, population]) cell.

    ``population`` is ``None`` on the classic client path; a user count
    makes the cell a population run (the trace shape normalized to
    ``options.rate_per_user`` per user — see ``Trace.population_spec``).
    """

    index: int
    chain: str
    configuration: DeploymentConfig
    workload: str
    trace: Trace
    seed: int
    scale: float
    options: CellOptions
    population: Optional[int] = None

    @property
    def label(self) -> str:
        label = (f"{self.chain}/{self.configuration.name}/{self.workload}"
                 f" seed={self.seed} scale={self.scale:g}")
        if self.population is not None:
            label += f" pop={self.population}"
        return label


@dataclass(frozen=True)
class SweepSpec:
    """The full experiment matrix, pre-expansion."""

    chains: Tuple[str, ...]
    configurations: Tuple[Union[str, DeploymentConfig], ...]
    workloads: Tuple[Union[str, Trace], ...]
    seeds: Tuple[int, ...] = (0,)
    scales: Tuple[Optional[float], ...] = (None,)
    populations: Tuple[Optional[int], ...] = (None,)
    options: CellOptions = field(default_factory=CellOptions)

    def __post_init__(self) -> None:
        for chain in self.chains:
            if chain not in CHAIN_NAMES:
                raise SpecError(f"unknown chain {chain!r}"
                                f" (have: {', '.join(CHAIN_NAMES)})")
        for configuration in self.configurations:
            if (isinstance(configuration, str)
                    and configuration not in CONFIGURATIONS):
                raise SpecError(
                    f"unknown configuration {configuration!r}"
                    f" (have: {', '.join(sorted(CONFIGURATIONS))})")
        registry = None
        for workload in self.workloads:
            if isinstance(workload, str):
                registry = workload_registry() if registry is None else registry
                if workload not in registry:
                    raise SpecError(
                        f"unknown workload {workload!r}"
                        f" (have: {', '.join(sorted(registry))})")
        for seed in self.seeds:
            if not isinstance(seed, int):
                raise SpecError(f"seeds must be integers, got {seed!r}")
        for scale in self.scales:
            if scale is not None and scale <= 0:
                raise SpecError(f"scales must be positive, got {scale}")
        for population in self.populations:
            if population is not None and population <= 0:
                raise SpecError(
                    f"populations must be positive, got {population}")

    def cells(self) -> List[SweepCell]:
        """Expand the matrix into its deterministic cell ordering.

        ``None`` scales resolve to the process default
        (:func:`repro.blockchains.base.default_scale`) at expansion time so
        every cell — and hence every cache key — carries a concrete factor.
        """
        registry = (workload_registry()
                    if any(isinstance(w, str) for w in self.workloads)
                    else {})
        cells: List[SweepCell] = []
        product = itertools.product(self.chains, self.configurations,
                                    self.workloads, self.seeds, self.scales,
                                    self.populations)
        for index, (chain, configuration, workload, seed, scale,
                    population) in enumerate(product):
            if isinstance(configuration, str):
                configuration = get_configuration(configuration)
            if isinstance(workload, str):
                name, trace = workload, registry[workload]
            else:
                name, trace = workload.name, workload
            cells.append(SweepCell(
                index=index,
                chain=chain,
                configuration=configuration,
                workload=name,
                trace=trace,
                seed=seed,
                scale=default_scale() if scale is None else float(scale),
                options=self.options,
                population=(None if population is None
                            else int(population))))
        return cells

    def shape(self) -> str:
        """Human-readable matrix dimensions, e.g. ``2x1x1x2x1 = 4 cells``."""
        dims = [len(self.chains), len(self.configurations),
                len(self.workloads), len(self.seeds), len(self.scales)]
        if self.populations != (None,):
            dims.append(len(self.populations))
        total = 1
        for dim in dims:
            total *= dim
        return f"{'x'.join(str(d) for d in dims)} = {total} cells"


def _matrix(raw: Any, path: str) -> Dict[str, Any]:
    """The ``sweep:`` mapping, read as SweepSpec keyword arguments."""
    names = builder_for("Tuple[str, ...]")
    return read_kwargs(SweepSpec, raw, path, omit=("options",),
                       build={"configurations": names, "workloads": names})


def sweep_from_dict(document: Dict[str, Any]) -> SweepSpec:
    """Build a SweepSpec from a parsed sweep document."""
    options = partial(read, CellOptions, omit=("observe",))
    parts = read_keys(document, "", {"sweep": _matrix}, {"options": options})
    return construct(SweepSpec, "sweep", **parts["sweep"],
                     options=parts.get("options", CellOptions()))


def load_sweep(text: str) -> SweepSpec:
    """Parse a YAML sweep specification.

    The hash that keys the result cache is computed over the *parsed*
    spec (see :mod:`repro.sweep.cache`), so edits that do not change the
    parsed document — whitespace, comments, key order — do not invalidate
    cached cells.
    """
    return sweep_from_dict(yaml.safe_load(text))
