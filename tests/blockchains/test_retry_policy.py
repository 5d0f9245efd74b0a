"""Client retry/backoff policy tests (§5.2 submission loops)."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.blockchains.base import BlockchainNetwork, ExperimentScale
from repro.blockchains.retry import RetryPolicy, attempts_for
from repro.blockchains.registry import chain_params
from repro.chain.mempool import MempoolPolicy
from repro.chain.transaction import transfer
from repro.common.errors import ConfigurationError
from repro.common.rng import RngFactory
from repro.econ.fees import FeeSpec
from repro.sim.deployment import TESTNET
from repro.sim.engine import Engine
from repro.sim.faults import FaultInjector, FaultSchedule


def make_net(retry_policy=None, capacity=None, tx_expiry=None, seed=1):
    params = replace(
        chain_params("quorum", TESTNET),
        retry_policy=retry_policy,
        mempool_policy=MempoolPolicy(capacity=capacity),
        tx_expiry=tx_expiry)
    engine = Engine()
    net = BlockchainNetwork(params, TESTNET, engine,
                            scale=ExperimentScale(1.0), seed=seed)
    net.create_accounts(50)
    return engine, net


def quorum_stall_schedule(recover_at):
    """Crash f+1 = 4 of the 10 testnet validators, denying the n-f quorum."""
    victims = [0, 1, 2, 3]
    events = [{"at": 0.0, "kind": "crash", "nodes": victims}]
    if recover_at is not None:
        events.append({"at": recover_at, "kind": "recover", "nodes": victims})
    return FaultSchedule.from_dicts(events)


class TestPolicyValidation:
    def test_defaults_are_valid(self):
        RetryPolicy()

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(base_delay=-1.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(base_delay=10.0, max_delay=1.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter=1.0)


class TestBackoff:
    def test_deterministic_given_seeded_rng(self):
        policy = RetryPolicy(base_delay=0.5, multiplier=2.0, jitter=0.2)
        a = [policy.backoff(i, RngFactory(7).stream("retry"))
             for i in range(1, 5)]
        b = [policy.backoff(i, RngFactory(7).stream("retry"))
             for i in range(1, 5)]
        assert a == b

    def test_exponential_growth_with_cap(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=2.0, jitter=0.0,
                             max_delay=4.0, max_attempts=6)
        rng = RngFactory(0).stream("retry")
        delays = [policy.backoff(i, rng) for i in range(1, 6)]
        assert delays == [1.0, 2.0, 4.0, 4.0, 4.0]

    def test_jitter_stays_within_fraction(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=1.0, jitter=0.1,
                             max_delay=1.0)
        rng = RngFactory(3).stream("retry")
        for attempt in range(1, 50):
            delay = policy.backoff(attempt, rng)
            assert 0.9 <= delay <= 1.1


class TestRetryOnRejection:
    def test_rejected_submission_schedules_retry(self):
        engine, net = make_net(
            retry_policy=RetryPolicy(max_attempts=3, base_delay=0.5),
            capacity=2)
        accts = net.accounts.addresses()
        txs = [transfer(accts[i], accts[i + 1]) for i in range(3)]
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
        # loop must give up after max_attempts and record the drop
        engine, net = make_net(
            retry_policy=RetryPolicy(max_attempts=3, base_delay=0.5,
                                     jitter=0.0),
            capacity=1)
        net.attach_faults(FaultInjector(quorum_stall_schedule(None)))
        accts = net.accounts.addresses()
        assert net.submit_batch((transfer(accts[0], accts[1]),)) == 1
        victim = transfer(accts[2], accts[3])
        assert net.submit_batch((victim,)) == 0
        engine.run(until=120.0)
        assert attempts_for(victim) == 3
        assert victim.aborted
        assert victim in net.dropped
        assert net.drop_reasons.get("MempoolFullError") == 1

    def test_no_retry_without_policy(self):
        engine, net = make_net(retry_policy=None, capacity=1)
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
        engine, net = make_net(
            retry_policy=RetryPolicy(max_attempts=5, base_delay=0.5,
                                     jitter=0.0),
            tx_expiry=5.0)
        net.attach_faults(FaultInjector(quorum_stall_schedule(20.0)))
        accts = net.accounts.addresses()
        tx = transfer(accts[0], accts[1])
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
        engine, net = make_net(
            retry_policy=RetryPolicy(resubmit_on_expiry=False),
            tx_expiry=5.0)
        net.attach_faults(FaultInjector(quorum_stall_schedule(None)))
        accts = net.accounts.addresses()
        tx = transfer(accts[0], accts[1])
        net.submit_batch((tx,))
        net.active_until = 40.0
        engine.run(until=60.0)
        assert tx.aborted and tx.abort_reason == "expired"
        assert net.drop_reasons.get("expired") == 1


class TestNoRetryStorm:
    def test_overload_retries_are_bounded_and_deterministic(self):
        def run(seed):
            engine, net = make_net(
                retry_policy=RetryPolicy(max_attempts=3, base_delay=1.0),
                capacity=100, seed=seed)
            accts = net.accounts.addresses()
            txs = [transfer(accts[i % 40], accts[(i + 1) % 40])
                   for i in range(1_000)]
            net.submit_batch(txs)
            net.active_until = 10.0
            engine.run(until=60.0)
            return net

        net = run(seed=5)
        # every rejected submission retries at most (max_attempts - 1) times
        assert net.retries_scheduled <= 2 * 1_000
        assert len(net.committed) + len(net.dropped) + len(net.mempool) \
            + net.retries_scheduled - net.retries_succeeded >= 0
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
        assert net.retries.policy == RetryPolicy(
            max_attempts=5, fee_bump=1.5, fee_bump_cap=4.0)

    def test_fees_keep_the_chains_own_policy_otherwise(self):
        own = RetryPolicy(max_attempts=7, base_delay=2.0, jitter=0.0)
        _, net = make_net(retry_policy=own)
        assert net.retries.policy == own
        net.attach_fees(FeeSpec())
        assert net.retries.policy == replace(own, fee_bump=1.25,
                                             fee_bump_cap=10.0)

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
