"""Properties of the fee market and the budget-constrained adversary.

Two invariants the economic model promises:

* a price-aware mempool never fee-evicts a transaction priced above the
  current admission floor — displacement only ever removes the cheapest
  resident, and only for a strictly higher bid;
* the DoS adversary's actual spend never exceeds its budget, whatever
  the chain, dialect, budget or attack rate — worst-case reservations
  make the budget a hard invariant, not an aspiration.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.mempool import Mempool, MempoolPolicy
from repro.chain.transaction import transfer
from repro.common.errors import MempoolFullError
from repro.core.primary import Primary
from repro.core.spec import (
    AccountSample,
    LoadSchedule,
    TransferSpec,
    simple_spec,
)
from repro.econ.fees import FeePolicy, FeeSpec, build_fee_model
from repro.sim.dos import AdversarySpec

bids = st.tuples(st.integers(min_value=1, max_value=60),
                 st.integers(min_value=0, max_value=30))


class TestEvictionFloor:
    @settings(max_examples=50, deadline=None)
    @given(prices=st.lists(bids, min_size=1, max_size=40),
           capacity=st.integers(min_value=1, max_value=8),
           base_fee=st.integers(min_value=1, max_value=20))
    def test_fee_eviction_never_drops_above_floor(self, prices, capacity,
                                                  base_fee):
        pool = Mempool(MempoolPolicy(capacity=capacity))
        pool.pricer = build_fee_model(
            FeePolicy(base_fee=base_fee), gas_target=1_000)
        violations = []
        resident = {}
        floor_before = 0
        incoming_price = 0

        def admission_floor() -> int:
            # the fee model's floor, raised to the cheapest resident's
            # price while the pool is at capacity
            floor = pool.pricer.floor()
            if len(resident) >= capacity:
                floor = max(floor, min(map(pool.pricer.effective_price,
                                           resident.values())))
            return floor

        def check(victim) -> None:
            del resident[victim.uid]
            # only the cheapest resident, outbid strictly, may go: the
            # victim is never priced above the admission floor that was
            # in force when the displacing transaction arrived, and is
            # always strictly cheaper than what displaced it
            price = pool.pricer.effective_price(victim)
            if price > floor_before or price >= incoming_price:
                violations.append(victim)

        pool.on_evict = check
        for i, (fee, tip) in enumerate(prices):
            tx = transfer(f"s{i % 5}", "sink", sequence=i,
                          fee_per_gas=fee, tip=tip, gas_limit=21_000)
            floor_before = admission_floor()
            incoming_price = pool.pricer.effective_price(tx)
            try:
                pool.add(tx)
            except MempoolFullError:
                continue
            resident[tx.uid] = tx
        assert not violations


class TestBudgetInvariant:
    @settings(max_examples=4, deadline=None)
    @given(chain=st.sampled_from(("ethereum", "algorand", "solana")),
           budget=st.integers(min_value=10_000, max_value=5_000_000),
           rate=st.sampled_from((200.0, 2_000.0)),
           bid=st.floats(min_value=1.0, max_value=5.0))
    def test_attacker_spend_never_exceeds_budget(self, chain, budget,
                                                 rate, bid):
        spec = simple_spec(
            TransferSpec(AccountSample(100)),
            LoadSchedule.constant(100, 15),
            fees=FeeSpec(),
            adversary=AdversarySpec(budget=budget, rate=rate,
                                    bid_multiplier=bid))
        primary = Primary(chain, "testnet", scale=0.02, seed=1)
        result = primary.run(spec, workload_name="budget-property",
                             drain=60.0, max_sim_seconds=200.0)
        adversary = result.economics["adversary"]
        assert 0 <= adversary["spend"] <= budget
        # nothing stays reserved once the run has fully drained or been
        # cut off: every submission commits, drops, or was never made
        assert adversary["reserved"] >= 0
