"""Tests for the blockchain runtime (BlockchainNetwork)."""

from __future__ import annotations

import pytest

from repro.blockchains.base import ChainParams, ExperimentScale
from repro.blockchains.registry import (
    CHAIN_NAMES,
    build_network,
    chain_params,
    characteristics_table,
)
from repro.chain.transaction import transfer
from repro.common.errors import ConfigurationError
from repro.contracts import make_counter_contract
from repro.chain.transaction import invoke
from repro.sim.deployment import CONSORTIUM, TESTNET, get_configuration
from repro.sim.engine import Engine


def make_net(chain="quorum", config="testnet", scale=0.1, seed=1):
    engine = Engine()
    net = build_network(chain, config, engine,
                        scale=ExperimentScale(scale), seed=seed)
    net.create_accounts(50)
    return engine, net


class TestExperimentScale:
    def test_rate_scaling(self):
        scale = ExperimentScale(0.1)
        assert scale.rate(1000) == 100.0

    def test_capacity_scaling_rounds_and_floors(self):
        scale = ExperimentScale(0.1)
        assert scale.capacity(1000) == 100
        assert scale.capacity(3) == 1       # never scales to zero
        assert scale.capacity(None) is None

    def test_cpu_and_bytes_inflate(self):
        scale = ExperimentScale(0.1)
        assert scale.inflate_cpu(1.0) == pytest.approx(10.0)
        assert scale.inflate_bytes(100) == 1000

    def test_invalid_factor_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentScale(0.0)
        with pytest.raises(ConfigurationError):
            ExperimentScale(1.5)


class TestRegistry:
    def test_six_chains(self):
        assert CHAIN_NAMES == ("algorand", "avalanche", "diem",
                               "ethereum", "quorum", "solana")

    def test_unknown_chain_rejected(self):
        with pytest.raises(ConfigurationError):
            chain_params("bitcoin", TESTNET)

    def test_table4_characteristics(self):
        rows = {row["blockchain"]: row for row in characteristics_table()}
        # the exact Table 4 matrix
        assert rows["algorand"]["consensus"] == "BA*"
        assert rows["algorand"]["properties"] == "probabilistic"
        assert rows["algorand"]["dapp_language"] == "PyTeal"
        assert rows["avalanche"]["consensus"] == "Avalanche"
        assert rows["avalanche"]["properties"] == "probabilistic"
        assert rows["diem"]["consensus"] == "HotStuff"
        assert rows["diem"]["properties"] == "deterministic"
        assert rows["diem"]["dapp_language"] == "Move"
        assert rows["quorum"]["consensus"] == "IBFT"
        assert rows["quorum"]["properties"] == "deterministic"
        assert rows["ethereum"]["consensus"] == "Clique"
        assert rows["ethereum"]["properties"] == "eventual"
        assert rows["solana"]["consensus"] == "TowerBFT"
        assert rows["solana"]["properties"] == "eventual"

    def test_geth_vm_chains(self):
        # Avalanche, Quorum, Ethereum share the geth EVM (Table 4)
        for name in ("avalanche", "quorum", "ethereum"):
            assert chain_params(name, TESTNET).vm_name == "geth-evm"


class TestSubmissionAndBlocks:
    def test_submitted_transfers_commit(self):
        engine, net = make_net()
        net.active_until = 10.0
        accts = net.accounts.addresses()
        txs = [transfer(accts[i % 50], accts[(i + 1) % 50], 1,
                        gas_limit=21_000) for i in range(20)]
        net.submit_batch(txs)
        engine.run(until=60.0)
        assert len(net.committed) == 20
        assert all(tx.committed_at is not None for tx in txs)
        assert all(tx.committed_at > tx.submitted_at for tx in txs)

    def test_blocks_appear_on_the_ledger(self):
        engine, net = make_net()
        accts = net.accounts.addresses()
        net.submit_batch([transfer(accts[0], accts[1], 1, gas_limit=21_000)
                          for _ in range(5)])
        engine.run(until=30.0)
        assert net.ledger.height >= 1
        assert net.ledger.total_transactions() == 5

    def test_balances_move(self):
        engine, net = make_net()
        a, b = net.accounts.addresses()[:2]
        before_b = net.state.balance(b)
        net.submit_batch((transfer(a, b, amount=7, gas_limit=21_000),))
        engine.run(until=30.0)
        assert net.state.balance(b) == before_b + 7

    def test_mempool_rejection_marks_tx(self):
        engine, net = make_net(chain="diem")
        a, b = net.accounts.addresses()[:2]
        # per-sender quota (scaled 100 * 0.1 = 10)
        accepted, rejected = 0, 0
        for _ in range(30):
            tx = transfer(a, b, 1, gas_limit=21_000)
            if net.submit_batch((tx,)):
                accepted += 1
            else:
                rejected += 1
                assert tx.aborted
                assert tx.abort_reason == "SenderQuotaError"
        assert accepted == 10
        assert rejected == 20

    def test_failed_execution_is_not_a_commit(self):
        engine, net = make_net(chain="algorand")
        net.deploy_contract(make_counter_contract())
        a = net.accounts.addresses()[0]
        bad = invoke(a, "Counter", "no_such_function", gas_limit=10**6)
        net.submit_batch((bad,))
        engine.run(until=60.0)
        assert bad.aborted
        assert bad.abort_reason == "reverted"
        assert bad not in net.committed

    def test_block_cpu_scales_with_gas(self):
        # a block costs each receipt's gas over the VM's rate plus one
        # signature verification per transaction
        engine, net = make_net(chain="diem")
        net.deploy_contract(make_counter_contract())
        a, b = net.accounts.addresses()[:2]
        batch = [transfer(a, b, 1, gas_limit=21_000),
                 invoke(a, "Counter", "add", gas_limit=10**6),
                 invoke(a, "Counter", "no_such_function", gas_limit=10**6)]
        receipts, cpu = net._execute_batch(batch)
        expected = 0.0
        for receipt in receipts:
            expected += (receipt.gas_used / net.vm.gas_per_cpu_second
                         + net.params.signature_scheme.verify_cost)
        assert cpu == expected      # the same float order, exactly
        assert [r.tx_uid for r in receipts] == [tx.uid for tx in batch]
        # only the failed execution leaves a trace beyond the block
        assert net._failed == {batch[2].uid: "reverted"}


class TestConfirmationDepthAndExpiry:
    def test_solana_commits_after_30_confirmations(self):
        engine, net = make_net(chain="solana")
        net.active_until = 60.0
        assert net.params.confirmation_depth == 30
        a, b = net.accounts.addresses()[:2]
        tx = transfer(a, b, 1, gas_limit=21_000)
        net.submit_batch((tx,))
        engine.run(until=120.0)
        assert tx.committed_at is not None
        # 30 slots of 0.4 s must elapse after inclusion
        assert tx.committed_at - tx.submitted_at >= 30 * 0.4

    def test_quorum_has_immediate_finality(self):
        engine, net = make_net(chain="quorum")
        a, b = net.accounts.addresses()[:2]
        tx = transfer(a, b, 1, gas_limit=21_000)
        net.submit_batch((tx,))
        engine.run(until=60.0)
        assert tx.committed_at is not None
        assert tx.committed_at - tx.submitted_at < 5.0

    def test_stale_transactions_expire_from_the_pool(self):
        # the 120-second recent-block-hash window (§5.2): transactions
        # stuck in the pool longer than the window become invalid. Solana's
        # bounded ingestion queue usually rejects the excess first, so this
        # exercises the expiry path with the queue bound lifted.
        from dataclasses import replace
        from repro.blockchains.base import BlockchainNetwork
        from repro.chain.mempool import MempoolPolicy
        from repro.blockchains.registry import chain_params
        from repro.sim.deployment import get_configuration

        engine = Engine()
        deployment = get_configuration("testnet")
        params = replace(chain_params("solana", deployment),
                         mempool_policy=MempoolPolicy(capacity=None))
        net = BlockchainNetwork(params, deployment, engine,
                                scale=ExperimentScale(0.05), seed=1)
        net.create_accounts(10)
        net.active_until = 400.0
        a, b = net.accounts.addresses()[:2]
        txs = [transfer(a, b, 1, gas_limit=21_000) for _ in range(20_000)]
        for tx in txs:
            net.submit_batch((tx,))
        engine.run(until=400.0)
        expired = [tx for tx in txs if tx.abort_reason == "expired"]
        assert expired, "expected stale transactions to expire"
        assert all(tx.aborted for tx in expired)


class TestAccountsProvisioning:
    def test_diem_caps_accounts_at_200_nodes(self):
        engine = Engine()
        net = build_network("diem", CONSORTIUM, engine,
                            scale=ExperimentScale(0.1))
        net.create_accounts(2000)
        assert len(net.accounts) == 130  # §5.2 workaround

    def test_diem_unlimited_on_small_configs(self):
        engine = Engine()
        net = build_network("diem", TESTNET, engine,
                            scale=ExperimentScale(0.1))
        net.create_accounts(2000)
        assert len(net.accounts) == 2000

    def test_accounts_are_funded(self):
        _, net = make_net()
        for address in net.accounts.addresses():
            assert net.state.balance(address) > 0


class TestStats:
    def test_stats_shape(self):
        engine, net = make_net()
        stats = net.stats()
        for key in ("height", "committed", "dropped", "pending",
                    "blocks_failed", "view_changes"):
            assert key in stats

    def test_arrival_rate_tracking(self):
        engine, net = make_net(scale=0.1)
        a, b = net.accounts.addresses()[:2]
        for _ in range(50):
            net.submit_batch((transfer(a, b, 1, gas_limit=21_000),))
        # 50 scaled submissions in <=1 s window -> >= 500 unscaled TPS
        assert net.arrival_rate() >= 450
