"""Golden bytes: the hashes a block and a transaction carry.

``block_hash_golden.json`` holds the ledger height and head block hash
of a small native-transfer run on each of the six chains and of one
DApp run, and ``tx_hash`` / ``signing_payload()`` of ten hand-built
transactions. The head hash chains every block's parent hash and Merkle
root, so one value pins ``crypto.hashing.digest``, ``merkle_root`` and
``Transaction.tx_hash`` across the whole run;
``tests/core/result_golden.json`` cannot, because no hash reaches the
result document. A block is hashed when its hash is read, and on every
chain but Solana (whose clients read the head each tick) nothing reads
one during the run: reading the head after the run is what hashes the
chain, each block once, oldest first.

Regenerate (only when a behaviour change is intended) with::

    PYTHONPATH=src python tests/chain/test_block_hash_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

import pytest

from repro.chain.transaction import Transaction, TxKind, invoke, transfer
from repro.core.primary import Primary
from repro.core.spec import (
    AccountSample,
    LoadSchedule,
    TransferSpec,
    simple_spec,
)
from repro.workloads import workload_registry

GOLDEN = Path(__file__).with_name("block_hash_golden.json")

SIX_CHAINS = ("algorand", "avalanche", "diem", "ethereum", "quorum",
              "solana")


def _native(chain: str) -> Primary:
    primary = Primary(chain, "testnet", scale=0.1, seed=7)
    primary.run(simple_spec(TransferSpec(AccountSample(50)),
                            LoadSchedule.constant(400, 5)),
                "golden-hash-native", drain=30)
    return primary


def _dapp(chain: str) -> Primary:
    primary = Primary(chain, "testnet", scale=0.002, seed=7)
    primary.run(workload_registry()["dapp-gaming"].spec(accounts=50),
                "golden-hash-dapp", drain=30)
    return primary


RUNS = {f"{chain}/native": _native for chain in SIX_CHAINS}
RUNS["quorum/dapp"] = _dapp


def _head(cell: str) -> Dict[str, object]:
    primary = RUNS[cell](cell.split("/")[0])
    ledger = primary.network.ledger
    assert primary.network.committed, "an empty chain pins nothing"
    return {"height": ledger.height, "head": ledger.head.block_hash}


def _transactions() -> List[Transaction]:
    # explicit uids: tx_hash covers the uid, and the counter is shared
    return [
        transfer("alice", "bob", amount=7, sequence=3, uid=0),
        transfer("a", "b", uid=1),
        Transaction(sender="carol", kind=TxKind.TRANSFER, uid=2),
        invoke("dave", "exchange", "buy", args=(1, "GOOG", 2.5),
               sequence=9, uid=3),
        invoke("erin", "nft", "mint", args=(), uid=4),
        invoke("frank", "dots", "move", args=("nested", (1, 2), None),
               uid=5),
        transfer("unicode-séndér", "れしぴ", amount=1, uid=6),
        transfer("gina", "hal", amount=10 ** 20, sequence=2 ** 40,
                 fee_per_gas=55, tip=5, gas_limit=21_000, uid=7),
        transfer("ivy", "jon", recent_block_hash="deadbeef" * 8,
                 uid=123_456_789),
        invoke("kim", "Counter", "add", args=(1,), fee_per_gas=3,
               gas_limit=43_500, recent_block_hash="00" * 32, uid=9),
    ]


def _tx_rows() -> List[Dict[str, str]]:
    return [{"tx_hash": tx.tx_hash, "signing_payload": tx.signing_payload()}
            for tx in _transactions()]


@pytest.fixture(scope="module")
def golden() -> Dict:
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_cell(golden):
    assert sorted(golden["ledgers"]) == sorted(RUNS)
    assert len(golden["transactions"]) == 10


@pytest.mark.parametrize("cell", RUNS)
def test_head_block_hash_matches_golden(cell, golden):
    assert _head(cell) == golden["ledgers"][cell]


def test_transaction_hashes_match_golden(golden):
    assert _tx_rows() == golden["transactions"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {"ledgers": {cell: _head(cell) for cell in RUNS},
         "transactions": _tx_rows()}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
