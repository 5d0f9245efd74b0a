"""Every transaction of a final block leaves the pipeline exactly once.

A final block is committed in one loop (``BlockchainNetwork._commit_block``)
that counts the whole block out of the pipeline up front. Per block and in
total, that count must equal the transactions the loop committed plus the
ones whose execution failed, and both must equal what the final blocks
hold. The Uber ``checkDistance`` trace at the golden size runs on all six
chains: the three geth-EVM chains commit it, and diem, solana and
algorand abort every call on their hard budget, so both exits are used.
"""

from __future__ import annotations

import pytest

from repro.chain.receipt import ExecStatus
from repro.core.primary import Primary
from repro.workloads import workload_registry

SIX_CHAINS = ("algorand", "avalanche", "diem", "ethereum", "quorum",
              "solana")
BUDGET_ABORTS = ("algorand", "diem", "solana")
FAILED = {status.value for status in ExecStatus
          if status is not ExecStatus.SUCCESS}


@pytest.mark.parametrize("chain", SIX_CHAINS)
def test_final_blocks_conserve_their_transactions(chain):
    trace = workload_registry()["dapp-mobility"]
    primary = Primary(chain, "testnet", scale=0.002, seed=7)
    primary.run(trace.spec(accounts=50), trace.name, drain=30)
    network = primary.network
    ledger = network.ledger
    observation = network._observation_delay()
    in_final = 0
    committed = 0
    failed = 0
    for height in range(1, ledger.height + 1):
        final_time = ledger.final_at(height)
        if final_time is None:
            assert height > ledger.height - network.params.confirmation_depth
            continue
        for tx in ledger.block_at(height).transactions:
            if tx.committed_at is None:
                assert tx.aborted and tx.abort_reason in FAILED, tx
                failed += 1
            else:
                assert tx.committed_at == final_time + observation
                committed += 1
        in_final += len(ledger.block_at(height))
    failure_drops = sum(1 for tx in network.dropped
                        if tx.abort_reason in FAILED)
    assert network.pipeline_exits == in_final > 0
    assert (committed, failed) == (len(network.committed), failure_drops)
    assert committed + failed == in_final
    if chain in BUDGET_ABORTS:
        assert failed > 0
    else:
        assert committed > 0
