"""Client retries: what a client does when its submission does not stick.

A :class:`BlockchainNetwork` holds one :class:`ClientRetries` only while a
:class:`RetryPolicy` is in force: its chain's parameters carry one (no
registered chain does), or ``fees:`` installs the fee-bumping policy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, Tuple

from repro.common.errors import ConfigurationError
from repro.econ.market import HONEST

if TYPE_CHECKING:
    from repro.blockchains.base import BlockchainNetwork
    from repro.chain.transaction import Transaction
    from repro.econ.fees import FeeSpec
    from repro.econ.market import FeeMarket


@dataclass(frozen=True)
class RetryPolicy:
    """Client-side retry/timeout/backoff behaviour (§5.2 client loops).

    Mirrors what the paper's real client implementations do under stress:
    Algorand clients poll and retry rejected submissions; Solana clients
    refresh the recent block hash and resubmit when a transaction falls out
    of the 120-second recency window. Backoff is exponential with
    multiplicative jitter drawn from the experiment's seeded RNG, so retry
    traffic is reproducible and never synchronises into a storm.

    ``max_attempts``        total submission attempts per transaction (>= 1)
    ``base_delay``          backoff before the first retry, seconds
    ``multiplier``          exponential growth factor per attempt
    ``max_delay``           backoff ceiling, seconds
    ``jitter``              +/- fraction of the delay randomised away
    ``resubmit_on_expiry``  re-sign and resubmit pool-expired transactions
    ``fee_bump``            price multiplier applied per resubmission (1.0
                            resends the identical payload — the default).
                            Without a bump, retries re-enter a congested
                            fee-ordered pool at the tail and starve; geth
                            requires a >= 10% bump to even replace a tx.
    ``fee_bump_cap``        ceiling on the cumulative bump, as a multiple
                            of the transaction's original price
    """

    max_attempts: int = 3
    base_delay: float = 0.5
    multiplier: float = 2.0
    max_delay: float = 30.0
    jitter: float = 0.1
    resubmit_on_expiry: bool = True
    fee_bump: float = 1.0
    fee_bump_cap: float = 1.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.fee_bump < 1.0:
            raise ConfigurationError(
                f"fee_bump must be >= 1.0, got {self.fee_bump}")
        if self.fee_bump_cap < 1.0:
            raise ConfigurationError(
                f"fee_bump_cap must be >= 1.0, got {self.fee_bump_cap}")
        if self.base_delay < 0 or self.max_delay < self.base_delay:
            raise ConfigurationError(
                f"need 0 <= base_delay <= max_delay, got"
                f" {self.base_delay}/{self.max_delay}")
        if self.multiplier < 1:
            raise ConfigurationError(
                f"multiplier must be >= 1, got {self.multiplier}")
        if not 0 <= self.jitter < 1:
            raise ConfigurationError(
                f"jitter must be in [0, 1), got {self.jitter}")

    def with_fees(self, spec: FeeSpec) -> RetryPolicy:
        """This policy bumping the price per resubmission, as a ``fees:``
        section asks (with its attempt count, if it sets one)."""
        return replace(self, fee_bump=spec.fee_bump,
                       fee_bump_cap=spec.fee_bump_cap,
                       max_attempts=spec.retry_attempts or self.max_attempts)

    def backoff(self, attempt: int, rng) -> float:
        """Delay before submission attempt ``attempt + 1`` (attempt >= 1)."""
        delay = min(self.max_delay,
                    self.base_delay * self.multiplier ** (attempt - 1))
        if self.jitter > 0:
            delay *= 1.0 + self.jitter * (2.0 * float(rng.random()) - 1.0)
        return max(0.0, delay)


def attempts_for(tx: Transaction) -> int:
    """Submission attempts recorded for *tx* (1 = no retries)."""
    return 0 if tx.submitted_at is None else tx.retries + 1


class ClientRetries:
    """Resubmits rejected, expired and evicted transactions under one
    :class:`RetryPolicy`, counting each in ``chain.retries_scheduled``.

    Keeps no reference to its network, which owns it and passes itself
    to each call."""

    def __init__(self, network: BlockchainNetwork,
                 policy: RetryPolicy) -> None:
        self.policy = policy
        self._scheduled = network.metrics.counter("chain.retries_scheduled")
        self._rng = network.rng.stream("client", "retry-jitter")
        # original (fee_per_gas, tip) per retried tx, anchoring the
        # fee-bump cap across resubmissions
        self._fee_anchors: Dict[int, Tuple[int, int]] = {}

    def schedule(self, network: BlockchainNetwork, tx: Transaction,
                 attempt: int) -> bool:
        """Back off and resubmit *tx* to *network*, whose submission
        *attempt* just failed, if the policy allows another try."""
        policy = self.policy
        if attempt >= policy.max_attempts:
            return False
        delay = policy.backoff(attempt, self._rng)
        self._scheduled.inc()
        network.engine.schedule_after(
            delay, lambda: self._resubmit(network, tx),
            label=f"{network.params.name}-retry")
        return True

    def after_eviction(self, network: BlockchainNetwork,
                       tx: Transaction) -> bool:
        """Re-bid for *tx*, which the pool let go of, if attempts remain."""
        return self.schedule(network, tx, max(1, attempts_for(tx)))

    def after_expiry(self, network: BlockchainNetwork,
                     tx: Transaction) -> bool:
        """Resubmit a pool-expired *tx* if the policy does."""
        return (self.policy.resubmit_on_expiry
                and self.after_eviction(network, tx))

    def _resubmit(self, network: BlockchainNetwork, tx: Transaction) -> None:
        if tx.aborted or tx.committed_at is not None or tx in network.mempool:
            return
        if network.fee_market is not None:
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
        policy = self.policy
        if (policy.fee_bump <= 1.0
                or market.label_for(tx.sender) != HONEST):
            return
        anchor = self._fee_anchors.setdefault(tx.uid, (tx.fee_per_gas, tx.tip))
        cap_fee = max(anchor[0],
                      int(math.ceil(anchor[0] * policy.fee_bump_cap)))
        cap_tip = max(anchor[1],
                      int(math.ceil(max(anchor[1], 1) * policy.fee_bump_cap)))
        tx.fee_per_gas = min(cap_fee, max(
            tx.fee_per_gas + 1,
            int(math.ceil(tx.fee_per_gas * policy.fee_bump))))
        tx.tip = min(cap_tip, max(
            tx.tip + 1,
            int(math.ceil(max(tx.tip, 1) * policy.fee_bump))))
