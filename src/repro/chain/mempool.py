"""Memory pool with the admission/drop policies the paper attributes results to.

Three policies matter in the evaluation:

* **bounded + per-sender quota** (Diem): nodes accept at most 100 pending
  transactions per signer and a bounded total; excess transactions are
  dropped during load peaks (§6.5), which protects the node from collapsing
  under constant overload (§6.3).
* **effectively unbounded** (Quorum/IBFT): "historically designed to never
  drop a client request" — commits everything under bursts (§6.5) but
  saturates and collapses under constant 10 kTPS load (§6.3).
* **evict-oldest bounded** (geth's txpool): a full pool makes room for a
  newcomer by throwing out its oldest resident.

A fee market (``fees:``) makes any of them price-aware: underpriced
transactions are rejected, pressure evicts the cheapest resident, and
blocks are filled highest bid first.

Every rejection and eviction path records a typed drop reason in
:attr:`Mempool.drops`, and resident bytes are tracked alongside resident
transactions so the resource-exhaustion model can account for pool memory.
"""

from __future__ import annotations

from collections import OrderedDict, defaultdict
from dataclasses import dataclass
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.common.errors import (
    MempoolFullError,
    SenderQuotaError,
    UnderpricedError,
)
from repro.obs.metrics import MetricsRegistry, weak_supplier

if TYPE_CHECKING:
    from repro.chain.transaction import Transaction
    from repro.obs.metrics import Counter, MetricsNamespace

#: Canonical drop-reason tags recorded by the pool.
DROP_CAPACITY = "capacity"
DROP_QUOTA = "sender_quota"
DROP_EVICTED = "evicted"
DROP_EXPIRED = "expired"
DROP_UNDERPRICED = "underpriced"
DROP_FEE_EVICTED = "fee_evicted"


@dataclass(frozen=True)
class MempoolPolicy:
    """Configuration of a node's memory pool.

    ``capacity``            maximum resident transactions (None = unbounded)
    ``per_sender_quota``    maximum pending per signer (None = unbounded)
    ``evict_oldest``        when full, evict the oldest instead of rejecting
    """

    capacity: Optional[int] = None
    per_sender_quota: Optional[int] = None
    evict_oldest: bool = False


class Mempool:
    """FIFO (or price-ordered) transaction pool with admission control."""

    def __init__(self, policy: MempoolPolicy = MempoolPolicy(),
                 metrics: Optional[MetricsNamespace] = None) -> None:
        self.policy = policy
        self._pool: "OrderedDict[int, Transaction]" = OrderedDict()
        self._per_sender: Dict[str, int] = defaultdict(int)
        # counters live in a metrics namespace (the experiment's shared
        # registry when the pool belongs to a chain, a private one
        # otherwise) so timeseries sampling sees them under mempool.*
        self._metrics = (metrics if metrics is not None
                         else MetricsRegistry().namespace("mempool"))
        self._admitted = self._metrics.counter("admitted")
        # per-reason drop counters, registered on a reason's first drop
        self._drop_counters: Dict[str, Counter] = {}
        # a plain int, so admitting or evicting calls no Gauge.add; the
        # gauge reads it on demand
        self._resident_bytes = 0
        self._metrics.gauge("resident_bytes", supplier=weak_supplier(
            self, attrgetter("_resident_bytes")))
        self._metrics.gauge("resident", supplier=self._pool.__len__)
        self.last_drop_reason: Optional[str] = None
        # a fee market (duck-typed: floor() and effective_price(tx)) makes
        # admission price-aware: underpriced transactions are rejected and
        # pressure evicts the cheapest resident instead of the oldest.
        # None — the benign default — leaves every code path untouched.
        self.pricer = None
        #: called with each fee-evicted victim (the network uses it to
        #: route the victim through the client retry/fee-bump path)
        self.on_evict: Optional[Callable[[Transaction], None]] = None

    # -- registry views ----------------------------------------------------------

    @property
    def admitted(self) -> int:
        """Transactions ever admitted into the pool."""
        return self._admitted.value

    @property
    def resident_bytes(self) -> int:
        """Wire bytes of the currently resident transactions."""
        return self._resident_bytes

    @property
    def drops(self) -> Dict[str, int]:
        """Per-reason counters for every transaction turned away/thrown out."""
        return self._metrics.counters_with_prefix("drops")

    def __len__(self) -> int:
        return len(self._pool)

    def __contains__(self, tx: Transaction) -> bool:
        return tx.uid in self._pool

    # -- legacy counter views ---------------------------------------------------

    @property
    def evicted(self) -> int:
        return (self.drops.get(DROP_EVICTED, 0)
                + self.drops.get(DROP_EXPIRED, 0))

    # -- admission ---------------------------------------------------------------

    def _count_drop(self, reason: str, count: int = 1) -> None:
        counter = self._drop_counters.get(reason)
        if counter is None:
            counter = self._drop_counters[reason] = self._metrics.counter(
                f"drops.{reason}")
        counter.inc(count)
        self.last_drop_reason = reason

    def room(self, count: int) -> Optional[int]:
        """How many of *count* transactions :meth:`add` would take right
        now, whoever sends them and whatever they carry; None when that
        depends on the transactions (sender quota, price) or admitting one
        evicts another.

        With a capacity-only policy :meth:`add` takes exactly the first
        that many of any *count* and rejects the rest for capacity.
        """
        policy = self.policy
        if (self.pricer is not None or policy.per_sender_quota is not None
                or policy.evict_oldest):
            return None
        if policy.capacity is None:
            return count
        return min(count, max(0, policy.capacity - len(self._pool)))

    def reject_unbuilt(self, count: int) -> None:
        """Count *count* capacity rejections of transactions nobody built:
        the tail of a batch :meth:`room` left no room for."""
        self._count_drop(DROP_CAPACITY, count)

    def add(self, tx: Transaction) -> None:
        """Admit a transaction or raise a :class:`MempoolFullError` subclass."""
        if (self.pricer is not None
                and self.pricer.effective_price(tx) < self.pricer.floor()):
            self._count_drop(DROP_UNDERPRICED)
            raise UnderpricedError(
                f"price {self.pricer.effective_price(tx)} below fee floor"
                f" {self.pricer.floor()}")
        quota = self.policy.per_sender_quota
        if quota is not None and self._per_sender[tx.sender] >= quota:
            self._count_drop(DROP_QUOTA)
            raise SenderQuotaError(
                f"sender {tx.sender} has {quota} pending transactions")
        cap = self.policy.capacity
        if cap is not None and len(self._pool) >= cap:
            if self.pricer is not None:
                # price-based replacement: the incoming transaction must
                # strictly outbid the cheapest resident to displace it
                victim = self._cheapest()
                incoming = self.pricer.effective_price(tx)
                if (victim is None
                        or self.pricer.effective_price(victim) >= incoming):
                    self._count_drop(DROP_UNDERPRICED)
                    raise UnderpricedError(
                        f"price {incoming} cannot displace any of the"
                        f" {len(self._pool)} resident transactions")
                self._evict_victim(victim)
            elif self.policy.evict_oldest:
                self._evict_one()
            else:
                self._count_drop(DROP_CAPACITY)
                raise MempoolFullError(
                    f"mempool at capacity ({cap} transactions)")
        self._pool[tx.uid] = tx
        self._per_sender[tx.sender] += 1
        self._resident_bytes += tx.size
        self._admitted.inc()

    def try_add(self, tx: Transaction) -> bool:
        """Admit a transaction, returning False instead of raising.

        Rejections are recorded in :attr:`drops` exactly as for :meth:`add`;
        the reason of the last failure is in :attr:`last_drop_reason`.
        """
        try:
            self.add(tx)
        except MempoolFullError:
            return False
        return True

    def _evict_one(self) -> None:
        uid, victim = self._pool.popitem(last=False)
        self._per_sender[victim.sender] -= 1
        self._resident_bytes -= victim.size
        self._count_drop(DROP_EVICTED)

    def _cheapest(self) -> Optional[Transaction]:
        """The resident transaction with the lowest effective price."""
        if not self._pool:
            return None
        return min(self._pool.values(),
                   key=lambda t: (self.pricer.effective_price(t), t.uid))

    def _evict_victim(self, victim: Transaction) -> None:
        del self._pool[victim.uid]
        self._per_sender[victim.sender] -= 1
        self._resident_bytes -= victim.size
        self._count_drop(DROP_FEE_EVICTED)
        if self.on_evict is not None:
            self.on_evict(victim)

    # -- removal ---------------------------------------------------------------

    def pop_batch(self, max_count: Optional[int] = None,
                  max_gas: Optional[int] = None) -> List[Transaction]:
        """Remove and return transactions for the next block.

        Selection is FIFO, or highest effective price first under a fee
        market, bounded by a transaction count and a cumulative gas limit
        (using each transaction's gas limit as its reservation, as block
        builders do).
        """
        if self.pricer is not None:
            candidates = sorted(
                self._pool.values(),
                key=lambda t: (-self.pricer.effective_price(t), t.uid))
        else:
            # FIFO: nothing leaves the pool until the selection is made
            candidates = self._pool.values()
        batch: List[Transaction] = []
        gas_total = 0
        byte_total = 0
        for tx in candidates:
            if max_count is not None and len(batch) >= max_count:
                break
            if max_gas is not None and gas_total + tx.gas_limit > max_gas:
                if batch:
                    break
                # a single oversized transaction still fits alone so block
                # production cannot deadlock on it
            batch.append(tx)
            gas_total += tx.gas_limit
            byte_total += tx.size
        pool = self._pool
        per_sender = self._per_sender
        for tx in batch:
            del pool[tx.uid]
            per_sender[tx.sender] -= 1
        self._resident_bytes -= byte_total
        return batch

    def remove(self, tx: Transaction) -> bool:
        """Remove a specific transaction (e.g. committed via another node)."""
        if tx.uid not in self._pool:
            return False
        del self._pool[tx.uid]
        self._per_sender[tx.sender] -= 1
        self._resident_bytes -= tx.size
        return True

    def drop_expired(self, now: float, max_age: float) -> List[Transaction]:
        """Drop transactions submitted more than *max_age* seconds ago.

        A resubmitted transaction (client retry with a refreshed recent
        block hash) ages from its latest resubmission, not its original
        submission — matching how Solana clients refresh blockhash recency.
        """
        def age_base(tx: Transaction) -> Optional[float]:
            return (tx.resubmitted_at if tx.resubmitted_at is not None
                    else tx.submitted_at)

        expired = [tx for tx in self._pool.values()
                   if age_base(tx) is not None
                   and now - age_base(tx) > max_age]
        for tx in expired:
            self.remove(tx)
            self._count_drop(DROP_EXPIRED)
        return expired

    # -- observability -----------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Admission/drop counters for benchmark results."""
        stats: Dict[str, int] = {
            "admitted": self.admitted,
            "resident": len(self._pool),
            "resident_bytes": self.resident_bytes,
        }
        for reason, count in sorted(self.drops.items()):
            stats[f"drop_{reason}"] = count
        return stats
