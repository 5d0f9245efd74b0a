"""Node-side admission control in front of the memory pool.

Real nodes do not hand every wire packet straight to the pool: overloaded
nodes shed load at the socket before paying the full admission path. The
:class:`AdmissionController` models that front door: while the node is
**shedding** (the resource-exhaustion model crossed its high-water mark),
submissions beyond a small pool-priming target are rejected with
:class:`~repro.common.errors.NodeOverloadedError`, a typed, retryable
backpressure signal. Everything else goes to the pool, whose policy admits
it or raises.

Shedding admits just enough traffic to keep the pool primed (a couple of
blocks deep), so an overloaded-but-alive chain keeps committing at capacity
while the excess is turned away cheaply — the §6 behaviour of the chains
that survive sustained overload.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.common.errors import NodeOverloadedError
from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:
    from repro.chain.mempool import Mempool
    from repro.chain.transaction import Transaction
    from repro.obs.metrics import MetricsNamespace


class AdmissionController:
    """Typed admission front door for one node's :class:`Mempool`."""

    def __init__(self, mempool: Mempool,
                 metrics: Optional[MetricsNamespace] = None) -> None:
        self.mempool = mempool
        self.shedding = False
        self.shed_pool_target: Optional[int] = None
        self._metrics = (metrics if metrics is not None
                         else MetricsRegistry().namespace("admission"))
        self._shed_rejections = self._metrics.counter("shed_rejections")

    @property
    def shed_rejections(self) -> int:
        return self._shed_rejections.value

    # -- shedding ---------------------------------------------------------------

    def set_shedding(self, shedding: bool,
                     pool_target: Optional[int] = None) -> None:
        """Enter/leave load-shedding; *pool_target* primes the pool depth."""
        self.shedding = shedding
        self.shed_pool_target = pool_target if shedding else None

    # -- submission --------------------------------------------------------------

    def submit(self, tx: Transaction) -> None:
        """Admit *tx* into the pool.

        Raises :class:`NodeOverloadedError` when shedding turns the
        transaction away at the door, or the pool's own
        :class:`MempoolFullError` subclass when the pool rejects it.
        """
        if self.shedding:
            target = self.shed_pool_target
            if target is None or len(self.mempool) >= target:
                self._shed_rejections.inc()
                raise NodeOverloadedError(
                    "node is shedding load under memory pressure")
        self.mempool.add(tx)

    def room(self, count: int) -> Optional[int]:
        """How many of *count* uniform submissions :meth:`submit` would
        accept right now (always the first that many); None when the
        answer depends on the transactions (see :meth:`Mempool.room`).

        Not shedding, a capacity-only pool takes what fits and the rest
        are capacity rejections. Shedding, the pool is primed up to
        ``shed_pool_target`` and the rest are shed; a target beyond the
        pool's capacity would mix the two, so it is not answered.
        """
        pool_room = self.mempool.room(count)
        if pool_room is None or not self.shedding:
            return pool_room
        target = self.shed_pool_target
        if target is None:
            return 0
        capacity = self.mempool.policy.capacity
        if capacity is not None and target > capacity:
            return None
        return min(count, max(0, target - len(self.mempool)))

    def turn_away(self, count: int) -> bool:
        """Reject *count* submissions nobody built: the tail of a batch
        whose head, as long as :meth:`room` allowed, was just submitted.
        True when they were shed at the door, False when the full pool
        rejected them."""
        if self.shedding:
            self._shed_rejections.inc(count)
            return True
        self.mempool.reject_unbuilt(count)
        return False

    def stats(self) -> Dict[str, int]:
        return {
            # no chain queues admissions; the keys stay for the result bytes
            "queued": 0,
            "drained": 0,
            "queue_depth": 0,
            "shed_rejections": self.shed_rejections,
        }
