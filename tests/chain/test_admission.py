"""Tests for the node-side admission controller (backpressure front door)."""

from __future__ import annotations

import pytest

from repro.chain.admission import AdmissionController
from repro.chain.mempool import Mempool, MempoolPolicy
from repro.chain.transaction import transfer
from repro.common.errors import (
    BackpressureError,
    MempoolFullError,
    NodeOverloadedError,
    SenderQuotaError,
)


def make_controller(capacity=None, per_sender_quota=None):
    pool = Mempool(MempoolPolicy(capacity=capacity,
                                 per_sender_quota=per_sender_quota))
    return pool, AdmissionController(pool)


class TestSubmit:
    def test_admits_straight_into_pool(self):
        pool, ctl = make_controller()
        ctl.submit(transfer("a", "b"))
        assert len(pool) == 1

    def test_pool_full_without_queue_raises(self):
        pool, ctl = make_controller(capacity=1)
        ctl.submit(transfer("a", "b"))
        with pytest.raises(MempoolFullError):
            ctl.submit(transfer("a", "b"))

    def test_quota_rejections_never_queue(self):
        # the pool's own error reaches the client; nothing is held back
        pool, ctl = make_controller(per_sender_quota=1)
        ctl.submit(transfer("a", "b"))
        with pytest.raises(SenderQuotaError):
            ctl.submit(transfer("a", "b"))
        assert len(pool) == 1 and ctl.stats()["queued"] == 0


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
        ctl.submit(transfer("a", "b"))
        ctl.submit(transfer("a", "b"))
        with pytest.raises(NodeOverloadedError):
            ctl.submit(transfer("a", "b"))
        # a block pops the pool below target: admission resumes
        pool.pop_batch(max_count=1)
        ctl.submit(transfer("a", "b"))
        assert len(pool) == 2

    def test_leaving_shedding_clears_target(self):
        pool, ctl = make_controller()
        ctl.set_shedding(True, pool_target=0)
        ctl.set_shedding(False)
        ctl.submit(transfer("a", "b"))
        assert len(pool) == 1
        assert ctl.shed_pool_target is None



def test_stats_keep_the_queue_keys_at_zero():
    # result documents carry admission_queued/_drained/_queue_depth
    pool, ctl = make_controller(capacity=1)
    ctl.submit(transfer("a", "b"))
    with pytest.raises(MempoolFullError):
        ctl.submit(transfer("a", "b"))
    assert ctl.stats() == {"queued": 0, "drained": 0, "queue_depth": 0,
                           "shed_rejections": 0}
