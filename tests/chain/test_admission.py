"""Tests for the node-side admission controller (backpressure front door)."""

from __future__ import annotations

import pytest

from repro.chain.admission import AdmissionController, AdmissionPolicy
from repro.chain.mempool import DROP_CAPACITY, Mempool, MempoolPolicy
from repro.chain.transaction import transfer
from repro.common.errors import (
    BackpressureError,
    ConfigurationError,
    MempoolFullError,
    NodeOverloadedError,
    SenderQuotaError,
)


def make_controller(capacity=None, queue_capacity=0, per_sender_quota=None):
    pool = Mempool(MempoolPolicy(capacity=capacity,
                                 per_sender_quota=per_sender_quota))
    return pool, AdmissionController(pool, AdmissionPolicy(queue_capacity))


class TestPolicy:
    def test_negative_queue_rejected(self):
        with pytest.raises(ConfigurationError):
            AdmissionPolicy(queue_capacity=-1)


class TestSubmit:
    def test_admits_straight_into_pool(self):
        pool, ctl = make_controller()
        assert ctl.submit(transfer("a", "b")) == "admitted"
        assert len(pool) == 1

    def test_pool_full_queues_when_room(self):
        pool, ctl = make_controller(capacity=1, queue_capacity=2)
        ctl.submit(transfer("a", "b"))
        assert ctl.submit(transfer("a", "b")) == "queued"
        assert ctl.queue_depth == 1
        assert ctl.stats()["queued"] == 1

    def test_pool_full_without_queue_raises(self):
        pool, ctl = make_controller(capacity=1)
        ctl.submit(transfer("a", "b"))
        with pytest.raises(MempoolFullError):
            ctl.submit(transfer("a", "b"))

    def test_queue_full_propagates_pool_error(self):
        pool, ctl = make_controller(capacity=1, queue_capacity=1)
        ctl.submit(transfer("a", "b"))
        ctl.submit(transfer("a", "b"))
        with pytest.raises(MempoolFullError):
            ctl.submit(transfer("a", "b"))

    def test_quota_rejections_never_queue(self):
        # the sender's backlog will not clear soon; queueing only delays
        # the same rejection
        pool, ctl = make_controller(per_sender_quota=1, queue_capacity=5)
        ctl.submit(transfer("a", "b"))
        with pytest.raises(SenderQuotaError):
            ctl.submit(transfer("a", "b"))
        assert ctl.queue_depth == 0


class TestShedding:
    def test_shedding_rejects_with_typed_retryable_error(self):
        pool, ctl = make_controller()
        ctl.set_shedding(True, pool_target=0)
        with pytest.raises(NodeOverloadedError):
            ctl.submit(transfer("a", "b"))
        assert issubclass(NodeOverloadedError, BackpressureError)
        assert ctl.stats()["shed_rejections"] == 1

    def test_shedding_keeps_pool_primed_to_target(self):
        pool, ctl = make_controller()
        ctl.set_shedding(True, pool_target=2)
        assert ctl.submit(transfer("a", "b")) == "admitted"
        assert ctl.submit(transfer("a", "b")) == "admitted"
        with pytest.raises(NodeOverloadedError):
            ctl.submit(transfer("a", "b"))
        # a block pops the pool below target: admission resumes
        pool.pop_batch(max_count=1)
        assert ctl.submit(transfer("a", "b")) == "admitted"

    def test_leaving_shedding_clears_target(self):
        pool, ctl = make_controller()
        ctl.set_shedding(True, pool_target=0)
        ctl.set_shedding(False)
        assert ctl.submit(transfer("a", "b")) == "admitted"
        assert ctl.shed_pool_target is None


class TestDrain:
    def test_drain_moves_queued_into_freed_pool(self):
        pool, ctl = make_controller(capacity=2, queue_capacity=4)
        for _ in range(4):
            ctl.submit(transfer("a", "b"))
        assert ctl.queue_depth == 2
        pool.pop_batch(max_count=2)
        assert ctl.drain() == 2
        assert len(pool) == 2
        assert ctl.queue_depth == 0
        assert ctl.stats()["drained"] == 2

    def test_drain_stops_at_pool_capacity_without_phantom_drops(self):
        pool, ctl = make_controller(capacity=1, queue_capacity=4)
        ctl.submit(transfer("a", "b"))
        ctl.submit(transfer("a", "b"))
        assert ctl.drain() == 0
        # probing for room must not count as a capacity drop
        assert pool.drops.get(DROP_CAPACITY, 0) == 1

    def test_drain_preserves_fifo_order(self):
        pool, ctl = make_controller(capacity=1, queue_capacity=4)
        first = transfer("a", "b")
        second = transfer("a", "b")
        third = transfer("a", "b")
        ctl.submit(first)
        ctl.submit(second)
        ctl.submit(third)
        pool.pop_batch()
        ctl.drain()
        assert pool.pop_batch() == [second]
        ctl.drain()
        assert pool.pop_batch() == [third]
