"""Price-aware mempool admission: floors, displacement, eviction, ordering."""

from __future__ import annotations

import pytest

from repro.chain.mempool import (
    DROP_FEE_EVICTED,
    DROP_UNDERPRICED,
    Mempool,
    MempoolPolicy,
)
from repro.chain.transaction import transfer
from repro.common.errors import MempoolFullError, UnderpricedError
from repro.econ.fees import FeePolicy, build_fee_model


def tx(sender: str, fee: int, tip: int = 0, sequence: int = 0):
    return transfer(sender, "sink", sequence=sequence,
                    fee_per_gas=fee, tip=tip, gas_limit=21_000)


def pricer(base_fee: int = 10):
    return build_fee_model(FeePolicy(base_fee=base_fee), gas_target=1_000)


def priced_pool(capacity=None, base_fee: int = 10, **policy) -> Mempool:
    pool = Mempool(MempoolPolicy(capacity=capacity, **policy))
    pool.pricer = pricer(base_fee)
    return pool


class TestFloor:
    def test_below_floor_rejected_and_counted(self):
        pool = priced_pool(base_fee=10)
        with pytest.raises(UnderpricedError):
            pool.add(tx("a", fee=9))
        assert pool.drops == {DROP_UNDERPRICED: 1}

    def test_at_floor_admitted(self):
        pool = priced_pool(base_fee=10)
        pool.add(tx("a", fee=10))
        assert len(pool) == 1

    def test_underpriced_is_retryable_mempool_error(self):
        # clients treat it like any transient mempool rejection: back off,
        # bump the fee, resubmit
        assert issubclass(UnderpricedError, MempoolFullError)


class TestDisplacement:
    # under eip1559 the effective price is min(fee_cap, base + tip), so
    # with a generous cap the tip is what differentiates bids
    def test_higher_bid_displaces_cheapest(self):
        pool = priced_pool(capacity=2)
        cheap, mid = tx("a", fee=100, tip=1), tx("b", fee=100, tip=5)
        pool.add(cheap)
        pool.add(mid)
        evicted = []
        pool.on_evict = evicted.append
        pool.add(tx("c", fee=100, tip=10))
        assert evicted == [cheap]
        assert cheap not in pool and mid in pool
        assert pool.drops[DROP_FEE_EVICTED] == 1

    def test_equal_bid_cannot_displace(self):
        pool = priced_pool(capacity=1)
        pool.add(tx("a", fee=100, tip=5))
        with pytest.raises(UnderpricedError):
            pool.add(tx("b", fee=100, tip=5))
        assert pool.drops[DROP_UNDERPRICED] == 1

    def test_no_pricer_keeps_legacy_capacity_behavior(self):
        pool = Mempool(MempoolPolicy(capacity=1))
        pool.add(tx("a", fee=1))
        with pytest.raises(MempoolFullError):
            pool.add(tx("b", fee=100))


class TestOrdering:
    def test_pop_batch_is_price_ordered(self):
        pool = priced_pool()
        low = tx("a", fee=100, tip=1)
        high = tx("b", fee=100, tip=20)
        mid = tx("c", fee=100, tip=10)
        for t in (low, high, mid):
            pool.add(t)
        batch = pool.pop_batch()
        assert batch == [high, mid, low]

    def test_price_ties_break_by_uid(self):
        pool = priced_pool()
        first, second = tx("a", fee=100, tip=2), tx("b", fee=100, tip=2)
        pool.add(second)
        pool.add(first)
        assert pool.pop_batch() == sorted([first, second],
                                          key=lambda t: t.uid)

