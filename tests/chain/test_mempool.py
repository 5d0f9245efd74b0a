"""Tests for the memory pool policies (§5.2 / §6.5 behaviours)."""

from __future__ import annotations

import pytest

from repro.chain.mempool import (
    DROP_CAPACITY,
    DROP_EVICTED,
    DROP_EXPIRED,
    DROP_QUOTA,
    Mempool,
    MempoolPolicy,
)
from repro.chain.transaction import TRANSFER_SIZE, transfer
from repro.common.errors import MempoolFullError, SenderQuotaError
from repro.obs.metrics import Counter, MetricsRegistry, MetricsSampler
from repro.sim.engine import Engine


def make_txs(n, sender="alice", gas_limit=21_000):
    return [transfer(sender, "bob", gas_limit=gas_limit) for _ in range(n)]


class TestAdmission:
    def test_unbounded_pool_accepts_everything(self):
        pool = Mempool()
        for tx in make_txs(1000):
            pool.add(tx)
        assert len(pool) == 1000

    def test_capacity_rejects_when_full(self):
        pool = Mempool(MempoolPolicy(capacity=2))
        a, b, c = make_txs(3)
        pool.add(a)
        pool.add(b)
        with pytest.raises(MempoolFullError):
            pool.add(c)
        assert pool.drops[DROP_CAPACITY] == 1

    def test_evict_oldest_instead_of_rejecting(self):
        pool = Mempool(MempoolPolicy(capacity=2, evict_oldest=True))
        a, b, c = make_txs(3)
        pool.add(a)
        pool.add(b)
        pool.add(c)
        assert len(pool) == 2
        assert a not in pool and c in pool
        assert pool.evicted == 1

    def test_per_sender_quota(self):
        # Diem: "a maximum of 100 transactions from the same signer"
        pool = Mempool(MempoolPolicy(per_sender_quota=100))
        for tx in make_txs(100):
            pool.add(tx)
        with pytest.raises(SenderQuotaError):
            pool.add(transfer("alice", "bob"))
        pool.add(transfer("carol", "bob"))  # other senders unaffected
        assert pool.drops[DROP_QUOTA] == 1

    def test_quota_frees_after_pop(self):
        pool = Mempool(MempoolPolicy(per_sender_quota=2))
        for tx in make_txs(2):
            pool.add(tx)
        pool.pop_batch(max_count=1)
        pool.add(transfer("alice", "bob"))

    def test_try_add_returns_bool(self):
        pool = Mempool(MempoolPolicy(capacity=1))
        assert pool.try_add(transfer("a", "b"))
        assert not pool.try_add(transfer("a", "b"))

    def test_contains(self):
        pool = Mempool()
        tx = transfer("a", "b")
        pool.add(tx)
        assert tx in pool


class TestDropReasons:
    def test_add_and_try_add_share_counters(self):
        # satellite: the raising and bool paths record the same reasons
        pool = Mempool(MempoolPolicy(capacity=1))
        pool.add(transfer("a", "b"))
        with pytest.raises(MempoolFullError):
            pool.add(transfer("a", "b"))
        assert not pool.try_add(transfer("a", "b"))
        assert pool.drops == {DROP_CAPACITY: 2}
        assert pool.last_drop_reason == DROP_CAPACITY

    def test_every_reason_is_tagged(self):
        pool = Mempool(MempoolPolicy(capacity=2, per_sender_quota=1))
        pool.add(transfer("a", "b"))
        with pytest.raises(SenderQuotaError):
            pool.add(transfer("a", "b"))
        pool.add(transfer("c", "b"))
        with pytest.raises(MempoolFullError):
            pool.add(transfer("d", "b"))
        assert pool.drops == {DROP_QUOTA: 1, DROP_CAPACITY: 1}

    def test_stats_exposes_per_reason_counts(self):
        pool = Mempool(MempoolPolicy(capacity=1))
        tx = transfer("a", "b")
        pool.add(tx)
        pool.try_add(transfer("a", "b"))
        stats = pool.stats()
        assert stats["admitted"] == 1
        assert stats["resident"] == 1
        assert stats["resident_bytes"] == tx.size
        assert stats[f"drop_{DROP_CAPACITY}"] == 1

    def test_legacy_views_read_the_unified_counters(self):
        pool = Mempool(MempoolPolicy(capacity=1, per_sender_quota=2))
        pool.add(transfer("a", "b"))
        pool.try_add(transfer("c", "b"))
        assert pool.drops[DROP_CAPACITY] == 1
        pool.drop_expired(now=1e9, max_age=1.0)


class TestByteAccounting:
    def test_resident_bytes_tracks_add_and_pop(self):
        pool = Mempool()
        txs = make_txs(4)
        for tx in txs:
            pool.add(tx)
        size = txs[0].size
        assert pool.resident_bytes == 4 * size
        pool.pop_batch(max_count=3)
        assert pool.resident_bytes == size

    def test_remove_releases_bytes(self):
        pool = Mempool()
        tx = transfer("a", "b", size=TRANSFER_SIZE + 500)
        pool.add(tx)
        pool.remove(tx)
        assert pool.resident_bytes == 0

    def test_evict_oldest_frees_bytes_for_large_tx(self):
        unit = transfer("a", "b").size
        pool = Mempool(MempoolPolicy(capacity=3, evict_oldest=True))
        for tx in make_txs(3):
            pool.add(tx)
        big = transfer("a", "b", size=2 * unit)   # twice a transfer
        pool.add(big)
        assert big in pool
        assert pool.resident_bytes == 2 * unit + big.size
        assert pool.drops[DROP_EVICTED] == 1

    def test_drop_expired_releases_bytes(self):
        # satellite: expiry and byte accounting interact correctly
        pool = Mempool()
        old = transfer("a", "b", size=TRANSFER_SIZE + 100)
        old.submitted_at = 0.0
        fresh = transfer("a", "b")
        fresh.submitted_at = 100.0
        pool.add(old)
        pool.add(fresh)
        pool.drop_expired(now=130.0, max_age=120.0)
        assert pool.resident_bytes == fresh.size
        assert pool.drops == {DROP_EXPIRED: 1}
        # evicted property folds evictions and expiries together (legacy)
        assert pool.evicted == 1

    def test_eviction_after_expiry_keeps_bytes_consistent(self):
        unit = transfer("a", "b").size
        pool = Mempool(MempoolPolicy(capacity=2, evict_oldest=True))
        old = transfer("a", "b")
        old.submitted_at = 0.0
        pool.add(old)
        pool.drop_expired(now=200.0, max_age=120.0)
        for tx in make_txs(3):
            tx.submitted_at = 200.0
            pool.add(tx)
        assert len(pool) == 2
        assert pool.resident_bytes == 2 * unit
        assert pool.drops == {DROP_EXPIRED: 1, DROP_EVICTED: 1}


class TestPopBatch:
    def test_fifo_order(self):
        pool = Mempool()
        txs = make_txs(5)
        for tx in txs:
            pool.add(tx)
        batch = pool.pop_batch(max_count=3)
        assert batch == txs[:3]
        assert len(pool) == 2

    def test_gas_cap_limits_batch(self):
        pool = Mempool()
        for tx in make_txs(10, gas_limit=21_000):
            pool.add(tx)
        batch = pool.pop_batch(max_gas=63_000)
        assert len(batch) == 3

    def test_single_oversized_tx_still_fits_alone(self):
        # block production must not deadlock on a tx above the gas cap
        pool = Mempool()
        pool.add(transfer("a", "b", gas_limit=10_000_000))
        batch = pool.pop_batch(max_gas=1_000_000)
        assert len(batch) == 1

    def test_unlimited_pop_drains_pool(self):
        pool = Mempool()
        for tx in make_txs(7):
            pool.add(tx)
        assert len(pool.pop_batch()) == 7
        assert len(pool) == 0


class TestRemoveAndExpiry:
    def test_remove_specific_tx(self):
        pool = Mempool()
        tx = transfer("a", "b")
        pool.add(tx)
        assert pool.remove(tx)
        assert not pool.remove(tx)
        assert len(pool) == 0

    def test_drop_expired(self):
        # Solana's 120-second recent-block-hash rule (§5.2)
        pool = Mempool()
        old = transfer("a", "b")
        old.submitted_at = 0.0
        fresh = transfer("a", "b")
        fresh.submitted_at = 100.0
        pool.add(old)
        pool.add(fresh)
        expired = pool.drop_expired(now=130.0, max_age=120.0)
        assert expired == [old]
        assert fresh in pool

    def test_drop_expired_ignores_unsubmitted(self):
        pool = Mempool()
        tx = transfer("a", "b")  # submitted_at None
        pool.add(tx)
        assert pool.drop_expired(now=1e9, max_age=1.0) == []


class TestRegistryViews:
    """The pool's counters as the registry, a sampler and the Prometheus
    exposition read them, on a saturated evict-oldest pool."""

    def test_sampled_and_exported_counters_of_an_evicting_pool(self):
        engine = Engine()
        registry = MetricsRegistry()
        pool = Mempool(MempoolPolicy(capacity=3, evict_oldest=True),
                       metrics=registry.namespace("mempool"))
        senders = iter(f"s{i}" for i in range(100))
        for k in range(5):
            # two admissions per second, at t = 0.5, 1.5, ...
            engine.schedule_at(k + 0.5, lambda: [
                pool.add(transfer(next(senders), "b")) for _ in range(2)])
        # exported at t = 0.25, 1.25, ...: after a sample, before the
        # next admissions
        exported = []
        for k in range(6):
            engine.schedule_at(k + 0.25, lambda: exported.append(
                registry.prometheus()))
        sampler = MetricsSampler(engine, registry, period=1.0)
        engine.run(until=5.9)
        sampler.stop()
        assert [row["t"] for row in sampler.samples] == [0, 1, 2, 3, 4, 5]
        for row, text in zip(sampler.samples, exported):
            admitted = 2 * int(row["t"])
            evicted = max(0, admitted - 3)
            assert row["mempool.admitted"] == admitted
            assert ("# TYPE repro_mempool_admitted counter\n"
                    f"repro_mempool_admitted {admitted}\n") in text
            if evicted:
                assert row["mempool.drops.evicted"] == evicted
                assert ("# TYPE repro_mempool_drops_evicted counter\n"
                        f"repro_mempool_drops_evicted {evicted}\n") in text
            else:
                # a drop reason is registered on its first drop
                assert "mempool.drops.evicted" not in row
                assert "drops_evicted" not in text
        assert isinstance(registry.get("mempool.admitted"), Counter)
        assert isinstance(registry.get("mempool.drops.evicted"), Counter)
        assert registry.value("mempool.admitted") == pool.admitted == 10
        assert pool.evicted == 7
        assert pool.drops == {DROP_EVICTED: 7}
        assert pool.last_drop_reason == DROP_EVICTED
        assert pool.stats() == {"admitted": 10, "resident": 3,
                                "resident_bytes": 3 * TRANSFER_SIZE,
                                "drop_evicted": 7}

    def test_policy_set_after_construction_applies(self):
        pool = Mempool()
        pool.policy = MempoolPolicy(capacity=1)
        pool.add(transfer("a", "b"))
        with pytest.raises(MempoolFullError):
            pool.add(transfer("a", "b"))
        assert pool.drops == {DROP_CAPACITY: 1}
        assert pool.last_drop_reason == DROP_CAPACITY
