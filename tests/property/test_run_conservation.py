"""Property: a whole run conserves its transactions and its fees.

Whatever features a run combines, the numbers it reports must add up at
the end: every transaction ends at most once, every drop is counted under
exactly one reason, every fee charged is attributed to one sender group,
every transaction sealed into the ledger was charged once, and the DoS
adversary never spends past its budget. Hypothesis draws a chain and a
subset of the features (faults, byzantine, fees, adversary, a 25x
overload rate, a population) and runs the whole Primary at small scale.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.blockchains.registry import CHAIN_NAMES
from repro.core.primary import Primary
from repro.core.spec import (
    AccountSample,
    LoadSchedule,
    TransferSpec,
    simple_population_spec,
    simple_spec,
)
from repro.econ.fees import FeeSpec
from repro.sim.byzantine import Equivocate
from repro.sim.dos import AdversarySpec
from repro.sim.faults import NodeCrash, NodeRecover

FEATURES = ("faults", "byzantine", "fees", "adversary", "overload",
            "population")
#: offered load (unscaled TPS) and its duration; "overload" multiplies it
RATE, DURATION = 200.0, 10.0
BUDGET = 200_000


def build_spec(features, users):
    rate = RATE * (25 if "overload" in features else 1)
    transfer = TransferSpec(AccountSample(100))
    if "population" in features:
        spec = simple_population_spec(users, transfer, rate / users,
                                      DURATION, cohort=50)
    else:
        spec = simple_spec(transfer, LoadSchedule.constant(rate, DURATION))
    sections = {}
    if "faults" in features:
        sections["faults"] = (NodeCrash(time=2.0, node=0),
                              NodeRecover(time=6.0, node=0))
    if "byzantine" in features:
        sections["byzantine"] = (Equivocate(start=2.0, stop=6.0, node=1),)
    if "fees" in features:
        sections["fees"] = FeeSpec()
    if "adversary" in features:
        sections["adversary"] = AdversarySpec(budget=BUDGET, rate=500.0)
    return replace(spec, **sections)


@settings(max_examples=12, deadline=None)
# the aggregate lane turns submissions away unbuilt (capacity-only pool,
# nobody reading rejections); every feature but a population at once
@example(chain="solana", features={"population", "overload"}, users=20_000,
         seed=1)
@example(chain="ethereum", features=set(FEATURES) - {"population"},
         users=1_000, seed=0)
@given(chain=st.sampled_from(CHAIN_NAMES),
       features=st.sets(st.sampled_from(FEATURES)),
       users=st.integers(min_value=1_000, max_value=20_000),
       seed=st.integers(min_value=0, max_value=3))
def test_a_run_conserves_transactions_and_fees(chain, features, users,
                                               seed):
    primary = Primary(chain, "testnet", scale=0.05, seed=seed)
    result = primary.run(build_spec(features, users),
                         workload_name="conservation", drain=20.0,
                         max_sim_seconds=120.0)
    network = primary.network
    stats = network.stats()
    committed, dropped = network.committed, network.dropped

    assert not any(tx.aborted for tx in committed)
    assert all(tx.committed_at is None for tx in dropped)
    uids = [tx.uid for tx in committed] + [tx.uid for tx in dropped]
    assert len(uids) == len(set(uids))

    by_reason = sum(count for key, count in stats.items()
                    if key.startswith("dropped_"))
    assert stats["dropped"] == len(dropped) + network.dropped_unbuilt
    assert stats["dropped"] == by_reason

    if network.fee_market is not None:
        spent = sum(value for key, value in stats.items()
                    if key.startswith("fees_spend_"))
        assert stats["fees_collected"] == spent
        ledger = network.ledger
        sealed = sum(len(ledger.block_at(height).transactions)
                     for height in range(1, ledger.height + 1))
        assert stats["fees_charged_txs"] == sealed

    if "adversary" in features:
        assert 0 <= result.economics["adversary"]["spend"] <= BUDGET
