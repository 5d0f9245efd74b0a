"""Tests for transactions."""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.chain.transaction import (
    INVOKE_BASE_SIZE,
    TRANSFER_SIZE,
    Transaction,
    TxKind,
    invoke,
    transfer,
)


class TestConstruction:
    def test_transfer_builder(self):
        tx = transfer("alice", "bob", amount=5, sequence=3)
        assert tx.kind is TxKind.TRANSFER
        assert tx.sender == "alice"
        assert tx.recipient == "bob"
        assert tx.amount == 5
        assert tx.sequence == 3

    def test_invoke_builder(self):
        tx = invoke("alice", "Counter", "add", (1, 2))
        assert tx.kind is TxKind.INVOKE
        assert tx.contract == "Counter"
        assert tx.function == "add"
        assert tx.args == (1, 2)

    def test_uids_are_unique(self):
        a, b = transfer("x", "y"), transfer("x", "y")
        assert a.uid != b.uid

    def test_equality_is_by_uid(self):
        a = transfer("x", "y")
        assert a == a
        assert a != transfer("x", "y")
        assert hash(a) == a.uid


class TestSizing:
    def test_transfer_size(self):
        assert transfer("a", "b").size == TRANSFER_SIZE

    def test_invoke_size_grows_with_args(self):
        no_args = invoke("a", "C", "f")
        two_args = invoke("a", "C", "f", (1, 2))
        assert two_args.size == no_args.size + 64
        assert no_args.size == INVOKE_BASE_SIZE

    def test_builders_store_the_wire_size(self):
        # a stored field, not a property: what the builder set is read back
        assert "size" in {f.name for f in fields(Transaction)}
        assert not isinstance(vars(Transaction).get("size"), property)
        assert transfer("a", "b").size == TRANSFER_SIZE
        assert invoke("a", "C", "f").size == INVOKE_BASE_SIZE
        assert invoke("a", "C", "f", ["x", 7]).size == \
            INVOKE_BASE_SIZE + 32 * 2

    def test_given_size_applies(self):
        assert transfer("a", "b", size=TRANSFER_SIZE + 100).size == \
            TRANSFER_SIZE + 100
        assert invoke("a", "C", "f", (1,), size=999).size == 999


class TestHashing:
    def test_tx_hash_deterministic_per_tx(self):
        tx = transfer("a", "b")
        assert tx.tx_hash == tx.tx_hash

    def test_tx_hash_unique_across_txs(self):
        assert transfer("a", "b").tx_hash != transfer("a", "b").tx_hash

    def test_signing_payload_covers_fee(self):
        a = invoke("a", "C", "f", sequence=1)
        b = invoke("a", "C", "f", sequence=1)
        b.fee_per_gas = 99
        assert a.signing_payload() != b.signing_payload()

    def test_signing_payload_excludes_benchmark_fields(self):
        tx = transfer("a", "b")
        before = tx.signing_payload()
        tx.submitted_at = 1.0
        tx.committed_at = 2.0
        assert tx.signing_payload() == before


class TestBookkeeping:
    def test_fresh_tx_is_unsubmitted(self):
        tx = transfer("a", "b")
        assert tx.submitted_at is None
        assert tx.committed_at is None
        assert not tx.aborted
