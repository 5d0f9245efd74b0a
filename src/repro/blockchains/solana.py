"""Solana — Tower BFT over Proof of History, eBPF runtime (§5.2).

Solana appends a block every 400 ms; "the verifiable delay function ...
puts away all communication steps but a broadcast", so the block cadence is
configuration-independent — what scales with hardware is how many
transactions a validator can ingest and execute per slot. The Solana team
confirmed to the authors that c5.xlarge instances "have insufficient
resources" (Acknowledgments): the per-slot intake here scales with the
node's vCPUs, giving ~9,000 TPS on the 36-vCPU datacenter machines (the
8,845 TPS of Table 1) and ~1,000 TPS on 4-vCPU nodes — why Solana still
"handles a 1000 TPS constant workload for all configurations" (§6.2).

Finality: Solana "may fork and needs to wait for 30 confirmations ...
before a stored transaction can be considered final" — 30 x 0.4 s = 12 s,
exactly the paper's observed average latency. Transactions must embed a
block hash "created less than 120 seconds before the transaction request is
received"; transactions stuck in the pool longer than that expire.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.chain.mempool import MempoolPolicy
from repro.consensus.models import PoHPerf
from repro.crypto.signing import ED25519
from repro.blockchains.base import ChainParams
from repro.blockchains.overload import OverloadPolicy
from repro.econ.fees import FeePolicy

if TYPE_CHECKING:
    from repro.consensus.models import WanProfile
    from repro.sim.deployment import DeploymentConfig

SLOT_DURATION = 0.4
CONFIRMATIONS = 30           # §5.2, [24]
BLOCKHASH_MAX_AGE = 120.0    # §5.2
GAS_PER_VCPU_PER_SLOT = 2_730_000  # intake scales with cores (~130 transfers)
INGESTION_QUEUE = 2_600      # leader TPU packet buffer under bursts


def _perf(profile: WanProfile) -> PoHPerf:
    return PoHPerf(profile, slot_duration=SLOT_DURATION, overload_gamma=0.45)


def params(deployment: DeploymentConfig) -> ChainParams:
    """Solana chain parameters (per-slot intake scales with the hardware)."""
    return ChainParams(
        name="solana",
        consensus_name="TowerBFT",
        properties="eventual",
        vm_name="ebpf",
        dapp_language="Solidity",   # via the Solang->eBPF toolchain
        signature_scheme=ED25519,
        block_gas_per_vcpu=GAS_PER_VCPU_PER_SLOT,
        mempool_policy=MempoolPolicy(capacity=INGESTION_QUEUE),
        confirmation_depth=CONFIRMATIONS,
        commit_api="stream",        # commitment-level web-socket subscription
        tx_expiry=BLOCKHASH_MAX_AGE,
        exec_parallelism=6.0,       # Sealevel parallel runtime
        # Solana validators OOM-crash under sustained saturation (§6: the
        # NASDAQ peak); the heavy per-transaction artifacts (gossip dedup,
        # fork/vote bookkeeping, accounts-db growth) dominate
        # flat signature fee plus a first-price priority-fee
        # auction for leader-schedule blockspace
        fee_policy=FeePolicy(dialect="auction", min_fee=5, default_tip=0),
        overload=OverloadPolicy(
            response="oom_crash",
            pool_tx_bytes=8 * 1024,
            consensus_tx_bytes=32 * 1024,
            state_tx_bytes=10 * 1024),
        perf_model=_perf)
