"""Tests for accounts, blocks, state, ledger and receipts."""

from __future__ import annotations

import pytest

from repro.chain.account import (
    AccountFactoryLimits,
    AccountRegistry,
    DEFAULT_INITIAL_BALANCE,
)
from repro.chain.block import Block, GENESIS_PARENT, genesis_block
from repro.chain.ledger import Ledger
from repro.chain.receipt import ExecStatus, Receipt
from repro.chain.state import WorldState
from repro.chain.transaction import transfer
from repro.common.errors import (
    ChainError,
    DeploymentError,
    UnknownAccountError,
)


class TestAccounts:
    def test_create_funds_accounts(self):
        registry = AccountRegistry()
        accounts = registry.create(3)
        assert len(registry) == 3
        assert all(a.balance == DEFAULT_INITIAL_BALANCE for a in accounts)

    def test_addresses_are_unique(self):
        registry = AccountRegistry()
        registry.create(50)
        assert len(set(registry.addresses())) == 50

    def test_diem_provisioning_limit(self):
        # §5.2: "the provided setup tools would fail systematically after
        # creating 130 accounts"
        registry = AccountRegistry(limits=AccountFactoryLimits(max_accounts=130))
        registry.create(130)
        with pytest.raises(DeploymentError):
            registry.create(1)

    def test_create_up_to_caps_at_limit(self):
        registry = AccountRegistry(limits=AccountFactoryLimits(max_accounts=130))
        created = registry.create_up_to(2000)
        assert len(created) == 130
        assert registry.create_up_to(10) == []

    def test_lookup(self):
        registry = AccountRegistry()
        (account,) = registry.create(1)
        assert registry.get(account.address) is account
        with pytest.raises(UnknownAccountError):
            registry.get("ghost")


class TestBlocks:
    def test_genesis(self):
        g = genesis_block()
        assert g.height == 0
        assert g.parent_hash == GENESIS_PARENT
        assert len(g) == 0

    def test_block_hash_changes_with_content(self):
        g = genesis_block()
        a = Block(1, g, "n", [transfer("a", "b")], timestamp=1.0)
        b = Block(1, g, "n", [transfer("a", "b")], timestamp=1.0)
        assert a.block_hash != b.block_hash  # different tx uids
        assert a.parent_hash == b.parent_hash == g.block_hash

    def test_block_size_includes_transactions(self):
        txs = [transfer("a", "b") for _ in range(3)]
        block = Block(1, genesis_block(), "n", txs)
        assert block.size == 512 + sum(t.size for t in txs)


class TestWorldState:
    def test_credit_debit(self):
        state = WorldState()
        state.credit("a", 100)
        assert state.balance("a") == 100
        assert state.transfer("a", "b", 60)
        assert (state.balance("a"), state.balance("b")) == (40, 60)
        assert state.nonce("a") == 1 and state.nonce("b") == 0

    def test_debit_insufficient_fails(self):
        state = WorldState()
        state.credit("a", 10)
        assert not state.transfer("a", "b", 11)
        assert (state.balance("a"), state.balance("b")) == (10, 0)
        # the nonce is bumped first, whatever the balance says
        assert state.nonce("a") == 1

    def test_nonces(self):
        state = WorldState()
        assert state.nonce("a") == 0
        state.bump_nonce("a")
        assert state.nonce("a") == 1

    def test_contract_storage_lifecycle(self):
        state = WorldState()
        storage = state.deploy_storage("c1")
        storage.put("k", 42)
        assert state.storage("c1").get("k") == 42
        assert "c1" in state.contracts()

    def test_double_deploy_rejected(self):
        state = WorldState()
        state.deploy_storage("c1")
        with pytest.raises(UnknownAccountError):
            state.deploy_storage("c1")

    def test_missing_contract_rejected(self):
        with pytest.raises(UnknownAccountError):
            WorldState().storage("ghost")


class TestLedger:
    def _block(self, ledger, txs=()):
        return Block(
            height=ledger.height + 1,
            parent=ledger.head,
            proposer="n",
            transactions=list(txs))

    def test_append_extends_head(self):
        ledger = Ledger()
        block = self._block(ledger)
        ledger.append(block, decided_at=1.0)
        assert ledger.head is block
        assert ledger.height == 1

    def test_append_wrong_height_rejected(self):
        ledger = Ledger()
        bad = Block(5, ledger.head, "n")
        with pytest.raises(ChainError):
            ledger.append(bad, decided_at=1.0)

    def test_append_wrong_parent_rejected(self):
        ledger = Ledger()
        ledger.append(self._block(ledger), decided_at=1.0)
        bad = Block(2, ledger.block_at(0), "n")
        with pytest.raises(ChainError):
            ledger.append(bad, decided_at=2.0)

    def test_append_equal_hash_copy_of_head_rejected(self):
        # the parent is checked by identity: a second genesis hashes the
        # same as the ledger's own, and is still not the head
        ledger = Ledger()
        copy = genesis_block()
        assert copy.block_hash == ledger.head.block_hash
        with pytest.raises(ChainError):
            ledger.append(Block(1, copy, "n"), decided_at=1.0)
        assert ledger.height == 0

    def test_immediate_finality_without_confirmations(self):
        ledger = Ledger(confirmation_depth=0)
        block = self._block(ledger)
        ledger.append(block, decided_at=2.0)
        assert ledger.final_at(1) == 2.0

    def test_confirmation_depth_delays_finality(self):
        # Solana: wait 30 confirmations; here depth=2 for brevity
        ledger = Ledger(confirmation_depth=2)
        for t in (1.0, 2.0, 3.0):
            ledger.append(self._block(ledger), decided_at=t)
        assert ledger.final_at(1) == 3.0   # final when height 3 lands
        assert ledger.final_at(2) is None
        assert ledger.final_at(3) is None

    def test_block_lookup_by_hash_and_height(self):
        ledger = Ledger()
        block = self._block(ledger, [transfer("a", "b")])
        ledger.append(block, decided_at=1.0)
        assert ledger.block_at(1) is block
        with pytest.raises(ChainError):
            ledger.block_at(9)

    def test_transaction_counting(self):
        ledger = Ledger()
        ledger.append(self._block(ledger, [transfer("a", "b")] * 3),
                      decided_at=1.0)
        assert ledger.total_transactions() == 3

    def test_negative_confirmation_depth_rejected(self):
        with pytest.raises(ChainError):
            Ledger(confirmation_depth=-1)


class TestReceipts:
    def test_ok_property(self):
        assert Receipt(ExecStatus.SUCCESS).ok
        assert not Receipt(ExecStatus.BUDGET_EXCEEDED).ok
