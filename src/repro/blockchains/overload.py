"""The resource-exhaustion model (§6 crash-under-load).

A :class:`BlockchainNetwork` builds one :class:`OverloadResponse` only
when its chain models exhaustion (``OverloadPolicy.response != "none"``)
and calls it once per production round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List

from repro.common.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.blockchains.base import BlockchainNetwork
    from repro.common.rng import RngFactory


@dataclass(frozen=True)
class OverloadPolicy:
    """How a chain's nodes respond to resource exhaustion (§6 under load).

    Each node's memory ledger is charged three ways, all in unscaled units
    so the model is invariant under the experiment scale transform:

    * ``pool_tx_bytes`` resident bytes per pending pool transaction;
    * ``consensus_tx_bytes`` *undecayed* backlog per transaction that
      entered the full admission path but never left through a block —
      retry churn, gossip dedup sets, unpruned forks/votes, pool
      bookkeeping. This is the term that grows without bound under
      sustained saturation (the §6.3 collapse mechanism);
    * ``state_tx_bytes`` ledger/state growth per transaction sealed into a
      block.

    ``response`` is what happens once pressure crosses ``high_water``:

    * ``"oom_crash"``   the node fail-stops (Solana validators during the
                        NASDAQ peak, §6); per-node ``oom_jitter`` staggers
                        the crashes;
    * ``"commit_stall"`` the node stops proposing/committing but stays up
                        (Diem ceasing to commit, §6);
    * ``"shed_load"``   admission sheds submissions beyond a small pool
                        target until pressure drops below ``low_water``
                        (the chains that survive sustained overload);
    * ``"none"``        resource exhaustion is not modeled.
    """

    response: str = "none"
    high_water: float = 0.9
    low_water: float = 0.75
    pool_tx_bytes: int = 4 * 1024
    consensus_tx_bytes: int = 8 * 1024
    state_tx_bytes: int = 512
    oom_jitter: float = 0.05
    shed_pool_blocks: float = 2.0

    def __post_init__(self) -> None:
        if self.response not in ("oom_crash", "commit_stall", "shed_load",
                                 "none"):
            raise ConfigurationError(f"bad overload response {self.response!r}")
        if not 0 < self.low_water <= self.high_water <= 1.0:
            raise ConfigurationError(
                f"need 0 < low_water <= high_water <= 1,"
                f" got {self.low_water}/{self.high_water}")
        if min(self.pool_tx_bytes, self.consensus_tx_bytes,
               self.state_tx_bytes) < 0:
            raise ConfigurationError("per-transaction bytes cannot be negative")
        if not 0 <= self.oom_jitter < 0.5:
            raise ConfigurationError(
                f"oom_jitter must be in [0, 0.5), got {self.oom_jitter}")
        if self.shed_pool_blocks <= 0:
            raise ConfigurationError("shed_pool_blocks must be positive")

    def memory_margins(self, rng: RngFactory, count: int) -> List[float]:
        """Per-node usable-RAM factors for *count* validators: under
        ``oom_crash``, seeded jitter staggers the crashes as pressure
        rises (validators do not all die at the same instant)."""
        if self.response != "oom_crash" or not self.oom_jitter:
            return [1.0] * count
        draw = rng.stream("overload", "oom-margin").random
        return [1.0 + self.oom_jitter * (2.0 * float(draw()) - 1.0)
                for _ in range(count)]


class OverloadResponse:
    """Prices every node's memory each round and fires the chain's response.

    Owns the memory pressure, its peak and the ``overload_events`` record.
    A stall or shed holds while any node is past high water (hysteresis
    included); the block pipeline checks :attr:`stalled`.
    """

    def __init__(self, network: BlockchainNetwork,
                 policy: OverloadPolicy) -> None:
        self.network = network
        self.policy = policy
        for machine in network.machines:
            machine.memory.high_water = policy.high_water
            machine.memory.low_water = policy.low_water
        self.memory_pressure = 0.0
        self.peak_memory_pressure = 0.0
        self.events: List[Dict[str, Any]] = []
        #: a stall or shed response is in force
        self._engaged = False
        #: commit stall: consensus makes no progress while set
        self.stalled = False

    def update(self, now: float) -> None:
        """Re-price every node's memory footprint; fire the response.

        The categories are :class:`OverloadPolicy`'s: ``mempool`` (the
        pool), ``consensus`` (every arrival that paid the full admission
        path, pool rejections included, minus every transaction sealed
        into a block) and ``state``. The validator set replicates the same
        data, so the levels are identical per node and built once per
        round; jittered per-node capacity margins stagger when each
        crosses its own high-water mark.
        """
        network = self.network
        policy = self.policy
        factor = network.scale.factor
        pending = len(network.mempool) / factor
        exits = network.pipeline_exits
        debt = max(0, network.admission_processed - exits) / factor
        settled = exits / factor
        levels = (("mempool", int(pending * policy.pool_tx_bytes)),
                  ("consensus", int(debt * policy.consensus_tx_bytes)),
                  ("state", int(settled * policy.state_tx_bytes)))
        injector = network.injector
        pressure = 0.0
        high = False
        for index, machine in enumerate(network.machines):
            ledger = machine.memory
            if (injector is not None
                    and not injector.node_available(index, machine.region)):
                # a crashed node's footprint freezes where it died
                pressure = max(pressure, ledger.pressure)
            else:
                pressure = max(pressure, ledger.set_levels(levels))
            high = high or ledger.high
        self.memory_pressure = pressure
        self.peak_memory_pressure = max(self.peak_memory_pressure, pressure)
        if policy.response == "oom_crash":
            self._oom_crash(now)
        elif high != self._engaged:
            self._engaged = high
            if policy.response == "commit_stall":
                # Diem-style: consensus stops committing under pressure
                self.stalled = high
                self._event(now, "commit_stall" if high else "commit_resumed")
            elif high:
                # survivor-style: shed excess load at the door, keep
                # committing
                target = max(1, int(network.reference_block_txs()
                                    * policy.shed_pool_blocks * factor))
                network.admission.set_shedding(True, target)
                self._event(now, "shed_start", pool_target=target)
            else:
                network.admission.set_shedding(False)
                self._event(now, "shed_stop")

    def _event(self, now: float, kind: str, **extra: Any) -> None:
        self.events.append({"at": round(now, 3), "kind": kind,
                            "chain": self.network.params.name,
                            "pressure": round(self.memory_pressure, 3),
                            **extra})

    def _oom_crash(self, now: float) -> None:
        """Solana-style: validators past their high-water mark OOM-crash."""
        network = self.network
        for index, machine in enumerate(network.machines):
            if machine.memory.state != "high":
                continue
            injector = network.injector
            if injector is None:
                # overload can crash nodes even without a fault schedule:
                # the simulation drives the injector itself
                from repro.sim.faults import FaultInjector
                injector = FaultInjector()
                network.attach_faults(injector)
            elif not injector.node_available(index, machine.region):
                continue
            injector.crash(index)
            self._event(now, "oom_crash", node=machine.name,
                        pressure=round(machine.memory.pressure, 3))

    def stats(self) -> Dict[str, float]:
        """The two ``chain_stats`` keys of a chain that models exhaustion."""
        return {"memory_pressure_peak": round(self.peak_memory_pressure, 4),
                "overload_events": len(self.events)}
