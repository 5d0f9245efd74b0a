"""Budget-constrained economic DoS adversary (the ``adversary:`` section).

The attacker is a client like any other — it signs transfers, pays gossip
delays and rides the retry path — but it bids above the honest fee
suggestion (``bid_multiplier`` times the wallet default) to buy blockspace
ahead of honest traffic, and it stops when its fee budget runs out. That
budget is the whole point: the robustness question is not *whether* a
flood degrades the chain (§6.3 already shows it does) but *what delaying
honest transactions costs* under each chain's fee dialect, and for how
long a fixed war chest sustains the attack.

The budget is enforced as a hard invariant through worst-case
reservations: before a transaction is submitted the adversary reserves
the most it could ever be charged for it (its capped bid times its gas
limit — covering client-side fee bumps on retries), and only releases the
reservation when the submission is rejected outright. Actual spend is
whatever the :class:`~repro.econ.market.FeeMarket` charges at commit
time, so ``spend <= reserved <= budget`` holds at every instant.

Determinism: the adversary draws no randomness at all — emission uses the
same fractional-carry accumulator as the Secondaries and every bid is a
pure function of the current fee floor.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.chain.transaction import transfer
from repro.common.errors import SpecError
from repro.obs.metrics import weak_supplier

if TYPE_CHECKING:
    from repro.blockchains.base import BlockchainNetwork
    from repro.chain.transaction import Transaction

#: emission granularity, matching the Secondary load generators
TICK = 0.1

#: balance credited to each attacker account — large enough that transfers
#: never fail for funds (the budget ledger, not the balance, limits spend)
WAR_CHEST = 10 ** 12


@dataclass(frozen=True)
class AdversarySpec:
    """The workload's ``adversary:`` section (its keys' meanings are in
    docs/ARCHITECTURE.md, "Workload spec sections")."""

    budget: int = 1_000_000
    rate: float = 1_000.0
    start: float = 0.0
    stop: Optional[float] = None
    bid_multiplier: float = 2.0
    senders: int = 8
    gas_limit: int = 21_000

    def __post_init__(self) -> None:
        if self.budget < 1:
            raise SpecError(f"adversary.budget must be >= 1, got {self.budget}")
        if self.rate <= 0:
            raise SpecError(f"adversary.rate must be positive, got {self.rate}")
        if self.start < 0:
            raise SpecError("adversary.start cannot be negative")
        if self.stop is not None and self.stop <= self.start:
            raise SpecError(
                f"adversary.stop ({self.stop}) must be after start"
                f" ({self.start})")
        if self.bid_multiplier < 1.0:
            raise SpecError("adversary.bid_multiplier must be >= 1.0")
        if self.senders < 1:
            raise SpecError("adversary.senders must be >= 1")
        if self.gas_limit < 21_000:
            raise SpecError("adversary.gas_limit must be >= 21000")


class DoSAdversary:
    """Submits fee-bidding transfers against one network until broke."""

    def __init__(self, network: "BlockchainNetwork", spec: AdversarySpec,
                 duration: float) -> None:
        if network.fee_market is None:
            raise SpecError(
                "an adversary needs a fee market; attach_fees() first")
        self.network = network
        self.spec = spec
        self.duration = duration
        self._senders = [f"{network.params.name}-attacker-{i}"
                         for i in range(spec.senders)]
        self._sender_set = frozenset(self._senders)
        self._sequences: Dict[str, int] = {s: 0 for s in self._senders}
        self._cursor = 0
        self._carry = 0.0
        self._reserved = 0
        self._reservations: Dict[int, int] = {}
        self.exhausted_at: Optional[float] = None
        metrics = network.metrics.namespace("adversary")
        self._submitted = metrics.counter("submitted")
        self._accepted = metrics.counter("accepted")
        self._rejected = metrics.counter("rejected")
        self._committed = metrics.counter("committed")
        self._dropped = metrics.counter("dropped")
        self._skipped_broke = metrics.counter("skipped_budget")
        # held weakly: the registry is the network's, and the network
        # must not keep its adversary alive
        metrics.gauge("reserved",
                      supplier=weak_supplier(self, attrgetter("_reserved")))
        metrics.gauge("budget_left", supplier=weak_supplier(
            self, DoSAdversary._budget_left))

    # -- lifecycle -------------------------------------------------------------------

    def start(self) -> None:
        """Fund the attacker accounts and schedule the attack window."""
        for address in self._senders:
            self.network.state.credit(address, WAR_CHEST)
        # labelled senders price their own bids (client retries bump only
        # honest ones), so each reservation stays an exact worst case
        self.network.fee_market.track(self._senders, "attacker")
        self.network.on_commit(self._on_commit)
        self.network.on_drop(self._on_drop)
        self.network.engine.schedule_after(
            self.spec.start, self._tick,
            label=f"{self.network.params.name}-adversary")

    def stop(self) -> None:
        """Stop listening to the network's commits and drops."""
        self.network.off_commit(self._on_commit)
        self.network.off_drop(self._on_drop)

    def _stop_at(self) -> float:
        stop = self.duration if self.spec.stop is None else self.spec.stop
        return min(stop, self.duration)

    # -- emission --------------------------------------------------------------------

    def _tick(self) -> None:
        now = self.network.engine.now
        if now >= self._stop_at():
            return
        self._carry += self.network.scale.rate(self.spec.rate) * TICK
        count = int(self._carry)
        self._carry -= count
        for _ in range(count):
            self._fire()
        self.network.engine.schedule_after(
            TICK, self._tick, label=f"{self.network.params.name}-adversary")

    def _worst_case_fee(self, fee_per_gas: int, tip: int) -> int:
        """Most this transaction can ever be charged.

        In every dialect the effective per-gas price is bounded by the
        fee cap plus the tip (eip1559: ``min(cap, base + tip) <= cap``;
        auction: exactly ``min_fee + tip``; flat: ``min_fee``), and
        attacker senders are exempt from the client fee bump, so the bid
        itself is the bound.
        """
        return (fee_per_gas + tip) * self.spec.gas_limit

    def _budget_left(self) -> int:
        """Budget not yet spent or reserved against in-flight submissions.

        ``spend() + _reserved`` only ever counts a transaction once at
        its worst case (reservations release when the charge lands in
        spend), so gating new submissions on this keeps ``spend <=
        budget`` a hard invariant.
        """
        return max(0, self.spec.budget - self.spend() - self._reserved)

    def _fire(self) -> None:
        fee_per_gas, tip = self.network.fee_market.model.attack_bid(
            self.spec.bid_multiplier)
        reservation = self._worst_case_fee(fee_per_gas, tip)
        if reservation > self._budget_left():
            # throttled: in-flight reservations (or spend) leave no room
            # for another worst-case transaction right now. Truly broke —
            # the attack is over — once spend alone rules one out.
            self._skipped_broke.inc()
            if (self.exhausted_at is None
                    and self.spend() + reservation > self.spec.budget):
                self.exhausted_at = self.network.engine.now
            return
        sender = self._senders[self._cursor % len(self._senders)]
        self._cursor += 1
        recipient = self._senders[(self._cursor + 1) % len(self._senders)]
        sequence = self._sequences[sender]
        self._sequences[sender] = sequence + 1
        tx = transfer(sender, recipient, amount=1, sequence=sequence,
                      fee_per_gas=fee_per_gas, tip=tip,
                      gas_limit=self.spec.gas_limit)
        if self.network.params.tx_expiry is not None:
            tx.recent_block_hash = self.network.ledger.head.block_hash
        self._reserved += reservation
        self._reservations[tx.uid] = reservation
        self._submitted.inc()
        if self.network.submit_batch((tx,)):
            self._accepted.inc()
        elif tx.aborted:
            # rejected outright with no retry coming: this transaction can
            # never be charged, so its reservation returns to the budget
            self._rejected.inc()
            self._release(tx)

    def _release(self, tx: Transaction) -> None:
        reservation = self._reservations.pop(tx.uid, 0)
        self._reserved -= reservation

    def _on_commit(self, txs: List[Transaction]) -> None:
        senders = self._sender_set
        for tx in txs:
            if tx.sender in senders:
                self._committed.inc()
                # the final charge is in the market's spend ledger now;
                # the worst-case reservation returns to the budget
                self._release(tx)

    def _on_drop(self, tx: Transaction) -> None:
        # a dropped attack transaction (shed, expired, evicted with
        # retries exhausted, failed execution) is never charged — its
        # reservation returns to the budget
        if tx.sender in self._sender_set:
            self._dropped.inc()
            self._release(tx)

    # -- reporting -------------------------------------------------------------------

    def spend(self) -> int:
        """Fee units actually charged to the attacker so far."""
        return self.network.fee_market.spend("attacker")

    def stats(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "budget": self.spec.budget,
            "rate": self.spec.rate,
            "bid_multiplier": self.spec.bid_multiplier,
            "submitted": int(self._submitted.value),
            "accepted": int(self._accepted.value),
            "rejected": int(self._rejected.value),
            "committed": int(self._committed.value),
            "dropped": int(self._dropped.value),
            "skipped_budget": int(self._skipped_broke.value),
            "spend": self.spend(),
            "reserved": self._reserved,
        }
        if self.exhausted_at is not None:
            out["exhausted_at"] = round(self.exhausted_at, 3)
        return out
