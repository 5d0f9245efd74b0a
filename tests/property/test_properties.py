"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.ledger import Ledger
from repro.chain.block import Block
from repro.chain.mempool import Mempool, MempoolPolicy
from repro.chain.state import WorldState
from repro.chain.transaction import transfer
from repro.common.errors import MempoolFullError
from repro.common.rng import derive_seed
from repro.crypto.hashing import merkle_root
from repro.core.spec import LoadSchedule
from repro.sim.engine import Engine


class TestEngineProperties:
    @given(st.lists(st.floats(min_value=0, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=50))
    def test_events_always_execute_in_time_order(self, times):
        engine = Engine()
        executed = []
        for t in times:
            engine.schedule_at(t, lambda t=t: executed.append(t))
        engine.run()
        assert executed == sorted(executed)
        assert len(executed) == len(times)

    @given(st.lists(st.floats(min_value=0.001, max_value=100,
                              allow_nan=False), min_size=1, max_size=30))
    def test_clock_never_goes_backwards(self, delays):
        engine = Engine()
        observed = []

        def chain(remaining):
            observed.append(engine.now)
            if remaining:
                engine.schedule_after(remaining[0],
                                      lambda: chain(remaining[1:]))

        engine.schedule_at(0.0, lambda: chain(delays))
        engine.run()
        assert observed == sorted(observed)


class TestMempoolProperties:
    @given(st.lists(st.sampled_from(["s0", "s1", "s2"]), min_size=1,
                    max_size=60),
           st.integers(min_value=1, max_value=10))
    def test_per_sender_quota_never_exceeded(self, senders, quota):
        pool = Mempool(MempoolPolicy(per_sender_quota=quota))
        admitted = Counter()
        for sender in senders:
            try:
                pool.add(transfer(sender, "r"))
            except MempoolFullError:
                continue
            admitted[sender] += 1
            assert admitted[sender] <= quota
        assert len(pool) == sum(admitted.values())

    @given(st.integers(min_value=1, max_value=30),
           st.integers(min_value=1, max_value=50))
    def test_capacity_never_exceeded(self, capacity, submissions):
        pool = Mempool(MempoolPolicy(capacity=capacity))
        for i in range(submissions):
            pool.try_add(transfer(f"s{i}", "r"))
            assert len(pool) <= capacity

    @given(st.integers(min_value=1, max_value=30),
           st.integers(min_value=1, max_value=50))
    def test_evict_oldest_keeps_newest(self, capacity, submissions):
        pool = Mempool(MempoolPolicy(capacity=capacity, evict_oldest=True))
        txs = [transfer(f"s{i}", "r") for i in range(submissions)]
        for tx in txs:
            pool.add(tx)
        survivors = pool.pop_batch()
        expected = txs[max(0, submissions - capacity):]
        assert survivors == expected

    @given(st.integers(min_value=1, max_value=40))
    def test_pop_conserves_transactions(self, n):
        pool = Mempool()
        txs = [transfer(f"s{i}", "r") for i in range(n)]
        for tx in txs:
            pool.add(tx)
        popped = []
        while len(pool):
            popped.extend(pool.pop_batch(max_count=3))
        assert popped == txs


class TestMerkleProperties:
    @given(st.lists(st.text(max_size=20), max_size=40))
    def test_root_is_deterministic(self, leaves):
        assert merkle_root(leaves) == merkle_root(leaves)

    @given(st.lists(st.text(max_size=20), min_size=2, max_size=40))
    def test_root_changes_when_a_leaf_changes(self, leaves):
        mutated = list(leaves)
        mutated[0] = mutated[0] + "-changed"
        assert merkle_root(leaves) != merkle_root(mutated)


class TestLoadScheduleProperties:
    @given(st.dictionaries(st.integers(min_value=0, max_value=1000),
                           st.integers(min_value=0, max_value=10_000),
                           min_size=1, max_size=10))
    def test_total_equals_numeric_integral(self, mapping):
        schedule = LoadSchedule.from_mapping(mapping)
        numeric = sum(schedule.rate_at(t + 0.5)
                      for t in range(int(schedule.duration)))
        assert schedule.total_transactions() == pytest.approx(
            numeric, rel=1e-6, abs=1e-6)

    @given(st.floats(min_value=0.01, max_value=10, allow_nan=False),
           st.dictionaries(st.integers(min_value=0, max_value=100),
                           st.integers(min_value=0, max_value=1000),
                           min_size=1, max_size=6))
    def test_scaling_scales_the_total(self, factor, mapping):
        schedule = LoadSchedule.from_mapping(mapping)
        scaled = schedule.scaled(factor)
        assert scaled.total_transactions() == pytest.approx(
            schedule.total_transactions() * factor)


class TestLedgerProperties:
    @given(st.lists(st.integers(min_value=0, max_value=5), min_size=1,
                    max_size=30),
           st.integers(min_value=0, max_value=5))
    def test_finality_is_monotone_and_complete(self, tx_counts, depth):
        ledger = Ledger(confirmation_depth=depth)
        time = 0.0
        for count in tx_counts:
            time += 1.0
            block = Block(ledger.height + 1, ledger.head, "n",
                          [transfer("a", "b") for _ in range(count)])
            ledger.append(block, decided_at=time)
        final_heights = [h for h in range(1, ledger.height + 1)
                         if ledger.final_at(h) is not None]
        # exactly the heights buried at least `depth` deep are final
        assert final_heights == list(range(1, max(0, ledger.height - depth) + 1))
        # finality times never decrease with height
        times = [ledger.final_at(h) for h in final_heights]
        assert times == sorted(times)


class TestStateProperties:
    @given(st.lists(st.tuples(st.sampled_from("abc"), st.sampled_from("abc"),
                              st.integers(min_value=0, max_value=100)),
                    max_size=50))
    def test_transfers_conserve_total_balance(self, moves):
        state = WorldState()
        for account in "abc":
            state.credit(account, 1000)
        total_before = sum(state.balance(x) for x in "abc")
        for src, dst, amount in moves:
            state.transfer(src, dst, amount)
        assert sum(state.balance(x) for x in "abc") == total_before
        assert all(state.balance(x) >= 0 for x in "abc")


class TestSeedProperties:
    @given(st.integers(min_value=0, max_value=2**32),
           st.lists(st.text(min_size=1, max_size=8), min_size=1, max_size=4))
    def test_derive_seed_stable_and_in_range(self, root, names):
        seed = derive_seed(root, *names)
        assert seed == derive_seed(root, *names)
        assert 0 <= seed < 2**64
