"""Simulated machines (AWS c5 instance types from §5.1).

A :class:`Machine` is a virtual machine in a region with an instance type
(vCPU count and memory). It counts the CPU-seconds of the blocks its node
executes (``cpu_seconds``, ``jobs_executed``) for the metrics sampler and
the Prometheus dump; it does not queue that work or delay anything by it.
The vCPU count reaches a run only through Solana's per-vCPU block budget
(``block_gas_per_vcpu``).

Memory is tracked by a per-machine :class:`MemoryLedger` with named
categories (mempool bytes, undecayed consensus backlog, ledger/state
growth). The ledger reports memory *pressure* against the instance type's
RAM with high/low-water hysteresis — the signal the blockchain runtimes
turn into the §6 overload responses (Solana validators OOM-crashing under
the NASDAQ peak, Diem ceasing to commit).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError, SimulationError
from repro.common.units import GIB
from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:
    from repro.obs.metrics import MetricsNamespace
    from repro.sim.network import Endpoint


@dataclass(frozen=True)
class InstanceType:
    """An AWS instance type: name, vCPU count and memory in bytes."""

    name: str
    vcpus: int
    memory: int

    def __post_init__(self) -> None:
        if self.vcpus <= 0:
            raise ConfigurationError(f"vcpus must be positive: {self}")
        if self.memory <= 0:
            raise ConfigurationError(f"memory must be positive: {self}")


C5_XLARGE = InstanceType("c5.xlarge", vcpus=4, memory=8 * GIB)
C5_2XLARGE = InstanceType("c5.2xlarge", vcpus=8, memory=16 * GIB)
C5_9XLARGE = InstanceType("c5.9xlarge", vcpus=36, memory=72 * GIB)

INSTANCE_TYPES: Dict[str, InstanceType] = {
    t.name: t for t in (C5_XLARGE, C5_2XLARGE, C5_9XLARGE)
}


class MemoryLedger:
    """Categorised memory accounting for one machine, with hysteresis.

    Consumers set the resident bytes of named categories (``mempool``,
    ``consensus``, ``state``, ...) with :meth:`set_levels`, as the
    blockchain runtimes do each production round. :attr:`total` is kept as
    a field, moved by each category's change. :attr:`pressure` is total
    usage over capacity; :attr:`state` is ``"ok"`` until pressure crosses
    ``high_water`` and returns to ``"ok"`` only below ``low_water`` — the
    hysteresis keeps overload responses from flapping at the threshold.
    """

    def __init__(self, capacity: int, high_water: float = 0.9,
                 low_water: float = 0.75) -> None:
        if capacity <= 0:
            raise ConfigurationError(f"capacity must be positive: {capacity}")
        if not 0 < low_water <= high_water <= 1.0:
            raise ConfigurationError(
                f"need 0 < low_water <= high_water <= 1,"
                f" got {low_water}/{high_water}")
        self.capacity = capacity
        self.high_water = high_water
        self.low_water = low_water
        self._categories: Dict[str, int] = {}
        #: resident bytes over all categories
        self.total = 0
        #: past the high-water mark and not yet back below low water
        self.high = False
        self.peak_pressure = 0.0
        self.high_water_crossings = 0

    def set_level(self, category: str, nbytes: int) -> None:
        """Set *category*'s resident bytes to an absolute level."""
        self.set_levels(((category, nbytes),))

    def set_levels(self, pairs: Sequence[Tuple[str, int]]) -> float:
        """Set each ``(category, bytes)`` in order; return the pressure.

        Equal to one :meth:`set_level` per pair: peak pressure and the
        water marks are evaluated after every category, not once at the
        end. A negative level anywhere raises before anything changes.
        """
        for category, nbytes in pairs:
            if nbytes < 0:
                raise SimulationError(f"negative level {nbytes} ({category})")
        categories = self._categories
        capacity = self.capacity
        total = self.total
        for category, nbytes in pairs:
            total += nbytes - categories.get(category, 0)
            categories[category] = nbytes
            pressure = total / capacity
            if pressure > self.peak_pressure:
                self.peak_pressure = pressure
            if not self.high and pressure >= self.high_water:
                self.high = True
                self.high_water_crossings += 1
            elif self.high and pressure < self.low_water:
                self.high = False
        self.total = total
        return total / capacity

    def level(self, category: str) -> int:
        return self._categories.get(category, 0)

    @property
    def pressure(self) -> float:
        """Resident bytes over capacity (can exceed 1.0: overcommit)."""
        return self.total / self.capacity

    @property
    def state(self) -> str:
        """``"high"`` once past the high-water mark, until below low water."""
        return "high" if self.high else "ok"

    def breakdown(self) -> Dict[str, int]:
        """Resident bytes per category (non-zero categories only)."""
        return {name: size for name, size in sorted(self._categories.items())
                if size > 0}


class Machine:
    """A machine running in a region: its memory ledger and CPU counters."""

    def __init__(self, endpoint: Endpoint, instance_type: InstanceType,
                 memory_margin: float = 1.0,
                 metrics: Optional[MetricsNamespace] = None) -> None:
        """*memory_margin* scales the usable RAM (per-node OOM jitter)."""
        if memory_margin <= 0:
            raise ConfigurationError(
                f"memory_margin must be positive: {memory_margin}")
        self.endpoint = endpoint
        self.instance_type = instance_type
        self.memory = MemoryLedger(
            max(1, int(instance_type.memory * memory_margin)))
        # pass a unique per-machine namespace (e.g. machine.<name>) when
        # several machines share one experiment registry — counters are
        # get-or-create by name, so a shared namespace would alias them
        self._metrics = (metrics if metrics is not None
                         else MetricsRegistry().namespace("machine"))
        self._cpu_seconds = self._metrics.counter("cpu_seconds")
        self._jobs = self._metrics.counter("jobs_executed")
        # reads the ledger, not the machine: a supplier closing over the
        # machine would tie it into a cycle through the registry
        self._metrics.gauge("memory_pressure",
                            supplier=partial(getattr, self.memory, "pressure"))

    @property
    def name(self) -> str:
        return self.endpoint.name

    @property
    def region(self) -> str:
        return self.endpoint.region

    # -- CPU ----------------------------------------------------------------------

    def execute(self, cpu_seconds: float) -> None:
        """Count one job of *cpu_seconds* of CPU work."""
        if cpu_seconds < 0:
            raise SimulationError(f"negative cpu time {cpu_seconds}")
        self._cpu_seconds.inc(cpu_seconds)
        self._jobs.inc()
