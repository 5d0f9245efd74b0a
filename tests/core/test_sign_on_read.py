"""A transaction carries its signer; its signature is derived on read.

* the run path (``Primary.run`` + ``summary()`` + ``to_json()``) signs
  nothing, and what it did not sign still verifies afterwards: committed,
  rejected and aggregate-lane transactions alike; an adversary's
  transactions, which nobody signs, read ``None``;
* a resubmission that refreshes ``recent_block_hash`` (every expiring
  chain) or bumps ``fee_per_gas`` (every fee market) changes the signed
  payload, and the signature read afterwards covers the new one.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, List

import pytest

from repro.blockchains.registry import chain_params
from repro.chain.mempool import MempoolPolicy
from repro.chain.transaction import Transaction
from repro.core.primary import Primary
from repro.core.spec import (
    AccountSample,
    ContractSample,
    InvokeSpec,
    LoadSchedule,
    TransferSpec,
    WorkloadSpec,
    simple_population_spec,
    simple_spec,
)
from repro.crypto.signing import PrecomputedSigner
from repro.econ.fees import FeeSpec
from repro.sim.deployment import TESTNET
from repro.sim.dos import AdversarySpec

TRANSFER = TransferSpec(AccountSample(50))


def small_pool(chain: str, capacity: int = 300, **overrides):
    """*chain*'s parameters with a pool small enough to turn clients away
    (unscaled: 30 slots at scale 0.1)."""
    return replace(chain_params(chain, TESTNET),
                   mempool_policy=MempoolPolicy(capacity=capacity),
                   **overrides)


def run(chain: str, spec: WorkloadSpec, params=None) -> Primary:
    primary = Primary(chain, "testnet", scale=0.1, seed=7, params=params)
    result = primary.run(spec, workload_name="sign-on-read", drain=30)
    result.summary()
    result.to_json()
    return primary


def sent(encoded_batches: List[List[Transaction]]) -> List[Transaction]:
    """Every transaction a Secondary encoded, on either lane."""
    return [tx for batch in encoded_batches for tx in batch]


def assert_signed(primary: Primary, txs: Iterable[Transaction]) -> None:
    scheme = primary.network.params.signature_scheme
    accounts = primary.network.accounts
    for tx in txs:
        account = accounts.get(tx.sender)
        payload, signature = tx.signing_payload(), tx.signature
        assert signature == scheme.sign(account.private_key, payload)
        assert scheme.verify(account.public_key, payload, signature)


# -- the run path signs nothing --------------------------------------------------

SPECS = {
    "transfer": lambda: simple_spec(TRANSFER, LoadSchedule.constant(3000, 5)),
    "invoke": lambda: simple_spec(
        InvokeSpec(AccountSample(50), ContractSample("counter"), "add"),
        LoadSchedule.constant(400, 5)),
    "population": lambda: simple_population_spec(
        users=20_000, interaction=TRANSFER, rate_per_user=0.2, duration=5,
        cohort=2_000),
}


@pytest.mark.parametrize("shape", SPECS)
def test_the_run_path_signs_nothing_and_it_all_verifies(shape, monkeypatch,
                                                        encoded_batches,
                                                        aggregate_lanes):
    calls = []
    sign = PrecomputedSigner.__call__

    def counted(self, message):
        calls.append(message)
        return sign(self, message)

    monkeypatch.setattr(PrecomputedSigner, "__call__", counted)
    primary = run("quorum", SPECS[shape](), params=small_pool("quorum"))
    assert calls == []

    # committed, rejected and aggregate-lane transactions are all among
    # what the Secondaries encoded
    encoded = sent(encoded_batches)
    assert primary.network.committed
    assert set(primary.network.committed) <= set(encoded)
    if shape == "transfer":
        assert any(tx.aborted for tx in encoded), \
            "the scenario must overflow the pool"
    if shape == "population":
        assert aggregate_lanes[primary], \
            "the scenario must use the aggregate lane"
    assert_signed(primary, encoded)
    assert len(calls) == len(encoded)       # the reads above, and only they


def test_an_adversary_transaction_has_no_signature():
    spec = simple_spec(TRANSFER, LoadSchedule.constant(400, 5),
                       fees=FeeSpec(),
                       adversary=AdversarySpec(budget=10 ** 9, rate=400))
    primary = run("ethereum", spec)
    attackers = [tx for tx in primary.network.committed
                 if "-attacker-" in tx.sender]
    assert attackers
    assert all(tx.signer is None and tx.signature is None
               for tx in attackers)


def test_signature_is_derived_from_the_transaction_as_it_stands():
    primary = run("quorum", SPECS["transfer"](), params=small_pool("quorum"))
    tx = primary.network.committed[0]
    before = tx.signature
    assert tx.signature == before
    tx.fee_per_gas += 1
    assert tx.signature != before
    assert_signed(primary, [tx])


# -- a resubmitted transaction is covered by its signature -----------------------


def test_solana_retry_refreshes_the_blockhash_under_the_signature(
        encoded_batches):
    spec = simple_spec(TRANSFER, LoadSchedule.constant(3000, 5),
                       fees=FeeSpec(retry_attempts=4))
    primary = run("solana", spec, params=small_pool("solana"))
    network = primary.network
    assert network.retries_succeeded > 0
    retried = [tx for tx in sent(encoded_batches) if tx.retries]
    assert any(tx.committed_at is not None for tx in retried)
    assert all(tx.recent_block_hash is not None for tx in retried)
    assert_signed(primary, network.committed)
    assert_signed(primary, retried)


def test_ethereum_fee_bump_raises_the_price_under_the_signature(
        encoded_batches):
    spec = simple_spec(TRANSFER, LoadSchedule.constant(3000, 5),
                       fees=FeeSpec(fee_bump=1.25))
    primary = run("ethereum", spec, params=small_pool("ethereum"))
    network = primary.network
    anchors = network.retries._fee_anchors
    bumped = [tx for tx in sent(encoded_batches)
              if tx.uid in anchors and tx.fee_per_gas > anchors[tx.uid][0]]
    assert bumped, "the scenario must bump a fee"
    assert_signed(primary, network.committed)
    assert_signed(primary, bumped)
