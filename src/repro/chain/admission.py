"""Node-side admission control in front of the memory pool.

Real nodes do not hand every wire packet straight to the pool: Solana's TPU
buffers packets ahead of sigverify, geth parks "future" transactions in a
queue, and overloaded nodes shed load at the socket before paying the full
admission path. The :class:`AdmissionController` models that front door:

* while the node is **shedding** (the resource-exhaustion model crossed its
  high-water mark), submissions beyond a small pool-priming target are
  rejected with :class:`~repro.common.errors.NodeOverloadedError` — a typed,
  retryable backpressure signal;
* pool-capacity rejections can be absorbed by a bounded **admission queue**
  that drains into the pool as block production frees space; when the queue
  is also full the original pool error propagates to the client.

Shedding admits just enough traffic to keep the pool primed (a couple of
blocks deep), so an overloaded-but-alive chain keeps committing at capacity
while the excess is turned away cheaply — the §6 behaviour of the chains
that survive sustained overload.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Optional

from repro.chain.mempool import Mempool
from repro.chain.transaction import Transaction
from repro.common.errors import (
    ConfigurationError,
    MempoolFullError,
    NodeOverloadedError,
    SenderQuotaError,
    UnderpricedError,
)
from repro.obs.metrics import MetricsNamespace, MetricsRegistry


@dataclass(frozen=True)
class AdmissionPolicy:
    """Configuration of the admission path in front of the pool.

    ``queue_capacity``  slots for transactions rejected by a full pool
                        (0 disables queueing; quota rejections never queue
                        because the sender's backlog will not clear soon)
    """

    queue_capacity: int = 0

    def __post_init__(self) -> None:
        if self.queue_capacity < 0:
            raise ConfigurationError(
                f"queue_capacity cannot be negative: {self.queue_capacity}")


class AdmissionController:
    """Typed admission front door for one node's :class:`Mempool`."""

    def __init__(self, mempool: Mempool,
                 policy: AdmissionPolicy = AdmissionPolicy(),
                 metrics: Optional[MetricsNamespace] = None) -> None:
        self.mempool = mempool
        self.policy = policy
        self._queue: Deque[Transaction] = deque()
        self.shedding = False
        self.shed_pool_target: Optional[int] = None
        self._metrics = (metrics if metrics is not None
                         else MetricsRegistry().namespace("admission"))
        self._shed_rejections = self._metrics.counter("shed_rejections")
        self._queued_total = self._metrics.counter("queued")
        self._drained_total = self._metrics.counter("drained")
        self._metrics.gauge("queue_depth", supplier=self._queue.__len__)
        #: lifecycle hook: called with each transaction that enters the
        #: pool *from the queue* (direct admits are visible to the caller
        #: through :meth:`submit`'s return value, drains are not). Only
        #: set when a tracer is attached, so the default path pays nothing.
        self.on_admit: Optional[Callable[[Transaction], None]] = None

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    # -- registry views -----------------------------------------------------------

    @property
    def shed_rejections(self) -> int:
        return self._shed_rejections.value

    @property
    def queued_total(self) -> int:
        return self._queued_total.value

    @property
    def drained_total(self) -> int:
        return self._drained_total.value

    # -- shedding ---------------------------------------------------------------

    def set_shedding(self, shedding: bool,
                     pool_target: Optional[int] = None) -> None:
        """Enter/leave load-shedding; *pool_target* primes the pool depth."""
        self.shedding = shedding
        self.shed_pool_target = pool_target if shedding else None

    # -- submission --------------------------------------------------------------

    def submit(self, tx: Transaction) -> str:
        """Admit *tx*; return ``"admitted"`` or ``"queued"``.

        Raises :class:`NodeOverloadedError` when shedding turns the
        transaction away at the door, or the pool's own
        :class:`MempoolFullError` subclass when neither the pool nor the
        admission queue has room.
        """
        if self.shedding:
            target = self.shed_pool_target
            if target is None or len(self.mempool) >= target:
                self._shed_rejections.inc()
                raise NodeOverloadedError(
                    "node is shedding load under memory pressure")
        try:
            self.mempool.add(tx)
        except (SenderQuotaError, UnderpricedError):
            # neither clears by waiting in the queue: a quota rejection
            # needs the sender's backlog to drain, an underpriced one
            # needs the client to come back with a higher bid
            raise
        except MempoolFullError:
            if len(self._queue) >= self.policy.queue_capacity:
                raise
            self._queue.append(tx)
            self._queued_total.inc()
            return "queued"
        return "admitted"

    def room(self, count: int) -> Optional[int]:
        """How many of *count* uniform submissions :meth:`submit` would
        accept right now (always the first that many); None when the
        answer depends on the transactions (see :meth:`Mempool.room`).

        Not shedding, a capacity-only pool takes what fits, the queue the
        next ``queue_capacity - depth``, and the rest are capacity
        rejections. Shedding, the pool is primed up to
        ``shed_pool_target`` and the rest are shed; a target beyond the
        pool's capacity would mix the two, so it is not answered.
        """
        pool_room = self.mempool.room(count)
        if pool_room is None:
            return None
        if self.shedding:
            target = self.shed_pool_target
            if target is None:
                return 0
            capacity = self.mempool.policy.capacity
            if capacity is not None and target > capacity:
                return None
            return min(count, max(0, target - len(self.mempool)))
        return min(count, pool_room
                   + self.policy.queue_capacity - len(self._queue))

    def turn_away(self, count: int) -> bool:
        """Reject *count* submissions nobody built: the tail of a batch
        whose head, as long as :meth:`room` allowed, was just submitted.
        True when they were shed at the door, False when the full pool
        (and queue) rejected them."""
        if self.shedding:
            self._shed_rejections.inc(count)
            return True
        self.mempool.reject_unbuilt(count)
        return False

    def drain(self) -> int:
        """Move queued transactions into the pool while it has room."""
        moved = 0
        while self._queue:
            tx = self._queue[0]
            if self.mempool.would_accept(tx) is not None:
                break
            try:
                self.mempool.add(tx)
            except MempoolFullError:
                # the probe is approximate under price-aware admission
                # (byte-budget evictions depend on victim sizes); a pool
                # that still will not take the head stops the drain
                break
            self._queue.popleft()
            moved += 1
            if self.on_admit is not None:
                self.on_admit(tx)
        self._drained_total.inc(moved)
        return moved

    def stats(self) -> Dict[str, int]:
        return {
            "queued": self.queued_total,
            "drained": self.drained_total,
            "queue_depth": len(self._queue),
            "shed_rejections": self.shed_rejections,
        }
