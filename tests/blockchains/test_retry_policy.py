"""Client retries and their backoff (§5.2 submission loops).

A workload's ``fees:`` section is what gives clients retries: each
rejected, expired or priced-out transaction is resubmitted after a
backoff, with its fee bumped, until its attempts run out.
"""

from __future__ import annotations

from dataclasses import replace

from repro.blockchains.base import BlockchainNetwork, ExperimentScale
from repro.blockchains.retry import attempts_for, backoff
from repro.blockchains.registry import chain_params
from repro.chain.mempool import MempoolPolicy
from repro.chain.transaction import transfer
from repro.common.rng import RngFactory
from repro.econ.fees import FeeSpec
from repro.sim.deployment import TESTNET
from repro.sim.engine import Engine
from repro.sim.faults import FaultInjector, FaultSchedule

#: retries that resend the same bid, so a full pool of equal bids keeps
#: rejecting a resubmission instead of letting it price a resident out
NO_BUMP = FeeSpec(fee_bump=1.0)


def make_net(fees=None, capacity=None, tx_expiry=None, seed=1):
    params = replace(
        chain_params("quorum", TESTNET),
        mempool_policy=MempoolPolicy(capacity=capacity),
        tx_expiry=tx_expiry)
    engine = Engine()
    net = BlockchainNetwork(params, TESTNET, engine,
                            scale=ExperimentScale(1.0), seed=seed)
    net.create_accounts(50)
    if fees is not None:
        net.attach_fees(fees)
    return engine, net


def bid(sender, recipient):
    """A transfer priced above quorum's launch base fee."""
    return transfer(sender, recipient, fee_per_gas=20, tip=1)


def quorum_stall_schedule(recover_at):
    """Crash f+1 = 4 of the 10 testnet validators, denying the n-f quorum."""
    victims = [0, 1, 2, 3]
    events = [{"at": 0.0, "kind": "crash", "nodes": victims}]
    if recover_at is not None:
        events.append({"at": recover_at, "kind": "recover", "nodes": victims})
    return FaultSchedule.from_dicts(events)


class Draws:
    """An RNG stand-in that returns one fixed draw."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


class TestBackoff:
    def test_deterministic_given_seeded_rng(self):
        a = [backoff(i, RngFactory(7).stream("retry")) for i in range(1, 5)]
        b = [backoff(i, RngFactory(7).stream("retry")) for i in range(1, 5)]
        assert a == b

    def test_exponential_growth_with_cap(self):
        # a mid draw is no jitter at all
        delays = [backoff(i, Draws(0.5)) for i in range(1, 10)]
        assert delays == [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 30.0, 30.0, 30.0]

    def test_jitter_stays_within_fraction(self):
        rng = RngFactory(3).stream("retry")
        ratios = [backoff(attempt, rng) / min(30.0, 0.5 * 2 ** (attempt - 1))
                  for attempt in range(1, 50)]
        assert all(0.9 <= ratio <= 1.1 for ratio in ratios)
        assert max(ratios) - min(ratios) > 0.15     # and it does vary
        assert backoff(1, Draws(0.0)) == 0.5 * 0.9


class TestRetryOnRejection:
    def test_rejected_submission_schedules_retry(self):
        engine, net = make_net(NO_BUMP, capacity=2)
        accts = net.accounts.addresses()
        txs = [bid(accts[i], accts[i + 1]) for i in range(3)]
        assert [net.submit_batch((tx,)) for tx in txs] == [1, 1, 0]
        assert not txs[2].aborted       # a retry is coming
        assert net.retries_scheduled == 1
        # block production drains the pool; the retry then succeeds
        net.active_until = 30.0
        engine.run(until=60.0)
        assert net.retries_succeeded == 1
        assert txs[2] in net.committed
        assert txs[2].retries == attempts_for(txs[2]) - 1
        assert 1 <= txs[2].retries < 3

    def test_attempts_are_bounded(self):
        # a stalled quorum keeps the tiny pool full forever, so the retry
        # loop must give up after retry_attempts and record the drop
        engine, net = make_net(replace(NO_BUMP, retry_attempts=4),
                               capacity=1)
        net.attach_faults(FaultInjector(quorum_stall_schedule(None)))
        accts = net.accounts.addresses()
        assert net.submit_batch((bid(accts[0], accts[1]),)) == 1
        victim = bid(accts[2], accts[3])
        assert net.submit_batch((victim,)) == 0
        engine.run(until=120.0)
        assert attempts_for(victim) == 4
        assert net.retries_scheduled == 3
        assert victim.aborted
        assert victim in net.dropped
        assert net.drop_reasons.get("UnderpricedError") == 1

    def test_no_retry_without_policy(self):
        # without a fees: section, a client submits once
        engine, net = make_net(capacity=1)
        assert net.retries is None
        accts = net.accounts.addresses()
        net.submit_batch((transfer(accts[0], accts[1]),))
        rejected = transfer(accts[2], accts[3])
        assert net.submit_batch((rejected,)) == 0
        assert rejected.aborted
        assert net.retries_scheduled == 0


class TestExpiryResubmission:
    def test_expired_transactions_resubmit_with_fresh_blockhash(self):
        # quorum stalls until t=20; a 5 s expiry evicts the pending tx,
        # the client resubmits it, and it commits after the recovery
        engine, net = make_net(FeeSpec(retry_attempts=5), tx_expiry=5.0)
        net.attach_faults(FaultInjector(quorum_stall_schedule(20.0)))
        accts = net.accounts.addresses()
        tx = bid(accts[0], accts[1])
        assert net.submit_batch((tx,)) == 1
        net.active_until = 40.0
        engine.run(until=90.0)
        assert tx.retries >= 1
        assert tx.resubmitted_at is not None
        assert tx.recent_block_hash is not None
        assert tx in net.committed
        assert not tx.aborted
        # latency is still measured from the original submission
        assert tx.submitted_at < tx.resubmitted_at

    def test_expiry_without_resubmission_drops(self):
        # one attempt allowed: an expired transaction is not resubmitted
        engine, net = make_net(FeeSpec(retry_attempts=1), tx_expiry=5.0)
        net.attach_faults(FaultInjector(quorum_stall_schedule(None)))
        accts = net.accounts.addresses()
        tx = bid(accts[0], accts[1])
        net.submit_batch((tx,))
        net.active_until = 40.0
        engine.run(until=60.0)
        assert tx.aborted and tx.abort_reason == "expired"
        assert net.drop_reasons.get("expired") == 1
        assert net.retries_scheduled == 0


class TestNoRetryStorm:
    def test_overload_retries_are_bounded_and_deterministic(self):
        def run(seed):
            engine, net = make_net(FeeSpec(retry_attempts=3), capacity=100,
                                   seed=seed)
            accts = net.accounts.addresses()
            txs = [bid(accts[i % 40], accts[(i + 1) % 40])
                   for i in range(1_000)]
            net.submit_batch(txs)
            net.active_until = 10.0
            engine.run(until=60.0)
            return net

        net = run(seed=5)
        # every transaction retries at most (retry_attempts - 1) times,
        # after a rejection and after being priced out alike
        assert 0 < net.retries_scheduled <= 2 * 1_000
        assert net.retries_succeeded <= net.retries_scheduled
        # and the whole cascade is reproducible
        again = run(seed=5)
        assert again.retries_scheduled == net.retries_scheduled
        assert again.retries_succeeded == net.retries_succeeded
        assert len(again.committed) == len(net.committed)


class TestWhereRetriesComeFrom:
    def test_fees_install_the_fee_bumping_policy(self):
        _, net = make_net()
        assert net.retries is None
        net.attach_fees(FeeSpec(fee_bump=1.5, fee_bump_cap=4.0,
                                retry_attempts=5))
        retries = net.retries
        assert (retries.max_attempts, retries.fee_bump,
                retries.fee_bump_cap) == (5, 1.5, 4.0)
        # a section that sets no attempt count gets three
        _, net = make_net(FeeSpec())
        assert net.retries.max_attempts == 3

    def test_only_honest_senders_bump_their_fee(self):
        engine, net = make_net(capacity=1)
        net.attach_fees(FeeSpec(fee_bump=2.0))
        net.fee_market.track(["mallory"], "attacker")
        accts = net.accounts.addresses()
        blocker = transfer(accts[0], accts[1], fee_per_gas=1_000, tip=1_000)
        honest = transfer(accts[2], accts[3], fee_per_gas=10, tip=1)
        evil = transfer("mallory", accts[3], fee_per_gas=10, tip=1)
        net.attach_faults(FaultInjector(quorum_stall_schedule(None)))
        assert net.submit_batch((blocker, honest, evil)) == 1
        engine.run(until=1.5)       # one backed-off resubmission each
        assert (honest.fee_per_gas, honest.tip) == (20, 2)
        assert (evil.fee_per_gas, evil.tip) == (10, 1)
