"""Integration tests for the §5.2 per-chain quirks the paper documents.

Each test pins one sentence of the paper to an observable behaviour of the
reproduction.
"""

from __future__ import annotations

import pytest

from repro.blockchains.base import ExperimentScale
from repro.blockchains.registry import build_network, chain_params
from repro.core.runner import run_trace
from repro.sim.deployment import CONSORTIUM, DATACENTER, TESTNET
from repro.sim.engine import Engine
from repro.workloads import constant_transfer_trace, uber_trace, youtube_trace

FAST = dict(accounts=100, scale=0.05, drain=120)


class TestAlgorandQuirks:
    def test_polling_commit_detection(self):
        # "we made DIABLO poll every appended block to detect transaction
        # commits"
        params = chain_params("algorand", TESTNET)
        assert params.commit_api == "poll"

    def test_no_confirmation_depth(self):
        # "It does not fork with high probability, so the transaction is
        # considered final as soon as it is included in a block"
        assert chain_params("algorand", TESTNET).confirmation_depth == 0

    def test_video_dapp_unimplementable(self):
        # "we could not implement the video sharing DApp in Teal"
        from repro.common.errors import DeploymentError, StateLimitError
        engine = Engine()
        net = build_network("algorand", TESTNET, engine,
                            scale=ExperimentScale(0.05))
        from repro.contracts.videoshare import make_youtube_contract
        with pytest.raises(StateLimitError):
            net.deploy_contract(make_youtube_contract())


class TestDiemQuirks:
    def test_per_sender_mempool_quota(self):
        # "Diem nodes only accept a maximum of 100 transactions from the
        # same signer in their memory pool"
        params = chain_params("diem", TESTNET)
        assert params.mempool_policy.per_sender_quota == 100

    def test_130_account_limit_on_large_configs(self):
        assert chain_params("diem", CONSORTIUM).account_limits.max_accounts == 130
        assert chain_params("diem", TESTNET).account_limits.max_accounts is None

    def test_best_at_low_rtt(self):
        # §6.2: Diem posts the best numbers "only on configurations with a
        # local setup"
        local = run_trace("diem", "datacenter",
                          constant_transfer_trace(1000, 30), **FAST)
        geo = run_trace("diem", "devnet",
                        constant_transfer_trace(1000, 30), **FAST)
        assert local.average_throughput > 3 * geo.average_throughput
        assert local.average_latency < 2.0


class TestSolanaQuirks:
    def test_thirty_confirmations(self):
        # "set the number of confirmations to 30"
        assert chain_params("solana", TESTNET).confirmation_depth == 30

    def test_blockhash_window(self):
        # "Solana requires the hash to be created less than 120 seconds
        # before the transaction request is received"
        assert chain_params("solana", TESTNET).tx_expiry == 120.0

    def test_latency_floor_is_12_seconds(self):
        # 30 confirmations x 0.4 s slots = the observed 12 s average latency
        result = run_trace("solana", "testnet",
                           constant_transfer_trace(200, 20), **FAST)
        lats = result.latencies()
        assert lats.min() >= 12.0

    def test_transactions_carry_recent_blockhash(self):
        from repro.core.interface import SimConnector
        from repro.core.spec import AccountSample, TransferSpec
        engine = Engine()
        net = build_network("solana", TESTNET, engine,
                            scale=ExperimentScale(0.05))
        connector = SimConnector(net)
        connector.create_resource(AccountSample(5))
        tx = connector.encode(TransferSpec(AccountSample(5)), None, 0.0)
        assert tx.recent_block_hash == net.ledger.head.block_hash

    def test_hardware_scales_intake(self):
        # the Solana team "confirm[ed] that c5.xlarge instances have
        # insufficient resources": capacity grows with vCPUs
        small = run_trace("solana", "testnet",
                          constant_transfer_trace(8000, 20), **FAST)
        big = run_trace("solana", "datacenter",
                        constant_transfer_trace(8000, 20), **FAST)
        assert big.average_throughput > 3 * small.average_throughput


class TestQuorumQuirks:
    def test_unbounded_mempool(self):
        # IBFT was "historically designed to never drop a client request"
        assert chain_params("quorum", TESTNET).mempool_policy.capacity is None

    def test_immediate_finality(self):
        assert chain_params("quorum", TESTNET).confirmation_depth == 0

    def test_geth_vm(self):
        assert chain_params("quorum", TESTNET).vm_name == "geth-evm"


class TestEthereumQuirks:
    def test_clique_block_period_limits_throughput(self):
        # "proof-of-work ... inherently limits its throughput (to the amount
        # of gas allowed per block divided by the block period)" — and the
        # same quotient binds for Clique
        from repro.blockchains.ethereum import BLOCK_GAS_LIMIT, BLOCK_PERIOD
        cap = BLOCK_GAS_LIMIT / 21_000 / BLOCK_PERIOD
        result = run_trace("ethereum", "testnet",
                           constant_transfer_trace(1000, 60),
                           accounts=100, scale=0.05, drain=200)
        assert result.average_throughput <= cap * 1.6
        assert result.average_throughput > 0

    def test_confirmations_for_forkable_poa(self):
        assert chain_params("ethereum", TESTNET).confirmation_depth > 0


class TestAvalancheQuirks:
    def test_paper_block_parameters(self):
        # "Avalanche limits the gas per block to 8M gas and seems to require
        # a period between blocks of at least 1.9 seconds"
        from repro.blockchains.avalanche import BLOCK_GAS_LIMIT, BLOCK_PERIOD
        assert BLOCK_GAS_LIMIT == 8_000_000
        assert BLOCK_PERIOD == 1.9

    def test_ecdsa_not_rsa(self):
        # "we opted for using ECDSA instead" of RSA4096
        from repro.crypto.signing import ECDSA
        assert chain_params("avalanche", TESTNET).signature_scheme is ECDSA

    def test_throughput_is_throttled_regardless_of_hardware(self):
        # §6.2 conjecture: "Avalanche and Ethereum are designed to run at a
        # relatively low throughput regardless of the available
        # computational power"
        small = run_trace("avalanche", "testnet",
                          constant_transfer_trace(1000, 30), **FAST)
        big = run_trace("avalanche", "datacenter",
                        constant_transfer_trace(1000, 30), **FAST)
        assert small.average_throughput == pytest.approx(
            big.average_throughput, rel=0.25)
        assert big.average_throughput < 500
