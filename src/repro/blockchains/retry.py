"""Client retries: what a client does when its submission does not stick.

A :class:`BlockchainNetwork` holds one :class:`ClientRetries` only while a
workload's ``fees:`` section is in force (:meth:`BlockchainNetwork.
attach_fees`); without one, a client submits each transaction once.

Retries mirror the paper's real clients under stress (§5.2 client loops):
Algorand clients poll and retry rejected submissions; Solana clients
refresh the recent block hash and resubmit when a transaction falls out of
the 120-second recency window. The backoff grows exponentially, with
jitter drawn from the experiment's seeded RNG, so retry traffic is
reproducible and never synchronises into a storm.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, Tuple

from repro.econ.market import HONEST

if TYPE_CHECKING:
    from repro.blockchains.base import BlockchainNetwork
    from repro.chain.transaction import Transaction
    from repro.econ.fees import FeeSpec
    from repro.econ.market import FeeMarket

#: the backoff: BASE_DELAY seconds before the first retry, MULTIPLIER
#: times more per further attempt up to MAX_DELAY, each delay varied by
#: up to +/- JITTER of itself
BASE_DELAY, MULTIPLIER, MAX_DELAY, JITTER = 0.5, 2.0, 30.0, 0.1
#: total submission attempts when ``fees:`` sets no ``retry_attempts``
DEFAULT_ATTEMPTS = 3


def backoff(attempt: int, rng) -> float:
    """Delay before submission attempt ``attempt + 1`` (attempt >= 1)."""
    delay = min(MAX_DELAY, BASE_DELAY * MULTIPLIER ** (attempt - 1))
    return delay * (1.0 + JITTER * (2.0 * float(rng.random()) - 1.0))


def attempts_for(tx: Transaction) -> int:
    """Submission attempts recorded for *tx* (1 = no retries)."""
    return 0 if tx.submitted_at is None else tx.retries + 1


class ClientRetries:
    """Resubmits rejected, expired and evicted transactions with a bumped
    fee, as a ``fees:`` section asks, counting each in
    ``chain.retries_scheduled``.

    Each resubmission by an honest client multiplies its price by
    ``fee_bump``, never beyond ``fee_bump_cap`` times the original: without
    a bump, retries re-enter a congested fee-ordered pool at the tail and
    starve (geth requires a >= 10% bump to even replace a transaction).

    Keeps no reference to its network, which owns it and passes itself
    to each call."""

    def __init__(self, network: BlockchainNetwork, spec: FeeSpec) -> None:
        self.max_attempts = spec.retry_attempts or DEFAULT_ATTEMPTS
        self.fee_bump = spec.fee_bump
        self.fee_bump_cap = spec.fee_bump_cap
        self._scheduled = network.metrics.counter("chain.retries_scheduled")
        self._rng = network.rng.stream("client", "retry-jitter")
        # original (fee_per_gas, tip) per retried tx, anchoring the
        # fee-bump cap across resubmissions
        self._fee_anchors: Dict[int, Tuple[int, int]] = {}

    def schedule(self, network: BlockchainNetwork, tx: Transaction,
                 attempt: int) -> bool:
        """Back off and resubmit *tx* to *network*, whose submission
        *attempt* just failed, if attempts remain."""
        if attempt >= self.max_attempts:
            return False
        delay = backoff(attempt, self._rng)
        self._scheduled.inc()
        network.engine.schedule_after(
            delay, lambda: self._resubmit(network, tx),
            label=f"{network.params.name}-retry")
        return True

    def after_eviction(self, network: BlockchainNetwork,
                       tx: Transaction) -> bool:
        """Re-bid for *tx*, which the pool let go of (priced out or
        expired), if attempts remain."""
        return self.schedule(network, tx, max(1, attempts_for(tx)))

    def _resubmit(self, network: BlockchainNetwork, tx: Transaction) -> None:
        if tx.aborted or tx.committed_at is not None or tx in network.mempool:
            return
        self._bump_fee(network.fee_market, tx)
        if network.params.tx_expiry is not None:
            # a resubmitting client re-reads the chain head first, exactly
            # the Solana recent-blockhash refresh loop (§5.2)
            tx.recent_block_hash = network.ledger.head.block_hash
        network.submit_batch((tx,))

    def _bump_fee(self, market: FeeMarket, tx: Transaction) -> None:
        """Raise *tx*'s bid before resubmission, within the cumulative cap.

        The cap anchors to the transaction's *original* price, so repeated
        retries converge to ``original * fee_bump_cap`` instead of growing
        without bound. Only honest wallets bump: a labelled sender (the
        DoS adversary) prices its own bids, and bumping them would break
        its budget reservations.
        """
        if self.fee_bump <= 1.0 or market.label_for(tx.sender) != HONEST:
            return
        anchor = self._fee_anchors.setdefault(tx.uid, (tx.fee_per_gas, tx.tip))
        cap_fee = max(anchor[0],
                      int(math.ceil(anchor[0] * self.fee_bump_cap)))
        cap_tip = max(anchor[1],
                      int(math.ceil(max(anchor[1], 1) * self.fee_bump_cap)))
        tx.fee_per_gas = min(cap_fee, max(
            tx.fee_per_gas + 1,
            int(math.ceil(tx.fee_per_gas * self.fee_bump))))
        tx.tip = min(cap_tip, max(
            tx.tip + 1,
            int(math.ceil(max(tx.tip, 1) * self.fee_bump))))
