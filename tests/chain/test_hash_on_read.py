"""A block is hashed when its hash is read, and to the value it had at seal.

A block links to its parent block, not to the parent's hash, so sealing
and appending hash nothing. These tests pin what that must not change:

* a hash read at any time, in any order, equals the one an eager
  reference computes at append time, even after every field the hash
  does not cover has been written;
* reading the head of a long chain nobody has hashed neither recurses
  nor hashes a block twice;
* a run on a chain without head readers builds no Merkle tree, a Solana
  run (whose clients stamp the head's hash) does, and either way the
  head hash read afterwards is the golden one.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.chain.block as block_module
from repro.chain.block import GENESIS_PARENT, Block
from repro.chain.ledger import Ledger
from repro.chain.transaction import invoke, transfer
from repro.crypto.hashing import digest, merkle_root
from tests.chain.test_block_hash_golden import GOLDEN, RUNS

HEADS = json.loads(GOLDEN.read_text())["ledgers"]


def _reference(height, parent_hash, proposer, txs, timestamp):
    """The block hash, computed eagerly from the block's contents."""
    return digest("block", height, parent_hash, proposer,
                  merkle_root([tx.tx_hash for tx in txs]), timestamp)


def _txs(count):
    return [transfer(f"s{i}", f"r{i}", amount=i + 1, sequence=i) if i % 2
            else invoke(f"s{i}", "Counter", "add", args=(i,), sequence=i)
            for i in range(count)]


@settings(max_examples=100, deadline=None)
@given(st.data(), st.lists(st.integers(min_value=0, max_value=9),
                           max_size=40))
def test_hash_on_read_equals_hash_at_seal(data, tx_counts):
    ledger = Ledger()
    references = [_reference(0, GENESIS_PARENT, "genesis", [], 0.0)]
    for height, count in enumerate(tx_counts, start=1):
        txs = _txs(count)
        proposer, timestamp = f"node-{height % 3}", height * 0.7
        ledger.append(Block(height, ledger.head, proposer, txs, timestamp),
                      decided_at=timestamp)
        references.append(
            _reference(height, references[-1], proposer, txs, timestamp))
    blocks = [ledger.block_at(h) for h in range(ledger.height + 1)]
    assert all(block._hash is None for block in blocks), "append hashed"
    for block in blocks:
        for tx in block.transactions:
            tx.fee_per_gas += 7
            tx.tip = 3
            tx.recent_block_hash = "ff" * 32
            tx.retries += 2
            tx.committed_at = 99.5
    order = data.draw(st.permutations(range(len(blocks))), label="order")
    for height in order:
        assert blocks[height].block_hash == references[height]
    parents = [GENESIS_PARENT] + references[:-1]
    assert [block.parent_hash for block in blocks] == parents


def test_long_chain_read_head_first_hashes_each_block_once(monkeypatch):
    ledger = Ledger()
    for height in range(1, 5_001):
        ledger.append(Block(height, ledger.head, "n",
                            timestamp=float(height)), decided_at=height)
    calls = []

    def counting(*parts):
        calls.append(parts[1])
        return digest(*parts)

    monkeypatch.setattr(block_module, "digest", counting)
    head = ledger.head.block_hash      # no RecursionError at 5 000 deep
    assert calls == list(range(5_001))
    assert all(ledger.block_at(h)._hash is not None for h in range(5_001))
    # memoized: reading again, anywhere in the chain, hashes nothing
    assert ledger.head.block_hash == head
    ledger.block_at(2_500).block_hash
    assert len(calls) == 5_001
    expected = GENESIS_PARENT
    for height in range(5_001):
        expected = _reference(height, expected, "genesis" if height == 0
                              else "n", [], float(height))
    assert head == expected


def test_blocks_compare_and_print_without_walking_the_chain():
    ledger = Ledger()
    ledger.append(Block(1, ledger.head, "n"), decided_at=1.0)
    head = ledger.head
    assert head == head and head != Block(1, ledger.block_at(0), "n")
    assert "parent" not in repr(head) and head._hash is None


@pytest.fixture
def merkle_calls(monkeypatch):
    """Every ``merkle_root`` call a block makes, counted."""
    calls = []
    real = block_module.merkle_root

    def counting(leaves):
        calls.append(None)
        return real(leaves)

    monkeypatch.setattr(block_module, "merkle_root", counting)
    return calls


@pytest.mark.parametrize("chain", ["diem", "algorand"])
def test_a_run_nobody_reads_builds_no_merkle_tree(chain, merkle_calls):
    ledger = RUNS[f"{chain}/native"](chain).network.ledger
    assert ledger.height > 0
    assert merkle_calls == []
    # reading the head after the run is what hashes the chain, once
    assert ledger.head.block_hash == HEADS[f"{chain}/native"]["head"]
    assert len(merkle_calls) == ledger.height + 1


def test_solana_reads_the_head_during_the_run(merkle_calls):
    ledger = RUNS["solana/native"]("solana").network.ledger
    assert len(merkle_calls) >= 1
    assert ledger.head.block_hash == HEADS["solana/native"]["head"]
    assert len(merkle_calls) <= ledger.height + 1
