"""Diem — chained HotStuff consensus on the MoveVM (§5.2).

Two quirks the paper documents shape every Diem result:

* "Diem nodes only accept a maximum of 100 transactions from the same
  signer in their memory pool" — the per-sender quota;
* the account provisioning tools "fail systematically after creating 130
  accounts", so community/consortium runs use only 130 accounts.

Diem is tuned for low round-trip times: it posts the best throughput
(> 982 TPS) and the lowest latency (<= 2 s) of all six chains, but only in
the single-datacenter configurations (§6.2). Under 10x overload its
throughput divides by ten (§6.3): the bounded mempool saturates and the
pool-management overhead throttles proposals — but the same bound is what
keeps it alive (unlike Quorum).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.chain.account import AccountFactoryLimits
from repro.chain.mempool import MempoolPolicy
from repro.consensus.models import LeaderBFTPerf
from repro.crypto.signing import ED25519
from repro.blockchains.base import ChainParams
from repro.blockchains.overload import OverloadPolicy
from repro.econ.fees import FeePolicy

if TYPE_CHECKING:
    from repro.consensus.models import WanProfile
    from repro.sim.deployment import DeploymentConfig

BLOCK_TX_LIMIT = 700
MEMPOOL_CAPACITY = 12_000
PER_SENDER_QUOTA = 100
ACCOUNT_PROVISIONING_LIMIT = 130


def _perf(profile: WanProfile) -> LeaderBFTPerf:
    return LeaderBFTPerf(
        profile,
        phases=3,                    # HotStuff's chained phases...
        pipeline_depth=3.0,          # ...overlap across consecutive blocks
        base_overhead=0.18,
        admission_cpu_per_tx=100e-6,
        per_node_overhead=1e-3,   # HotStuff communication is linear in n
        # Diem's pacemaker is tuned for datacenter round trips: rounds that
        # outlive ~1 s trigger a view change, which is why Diem underperforms
        # on high-RTT networks (§6.2: "optimized to run on network setups
        # with a low round-trip time")
        round_timeout=1.0,
        overload_gamma=0.5,          # stress is bounded by the mempool cap;
        # together with the admission overhead and the pacemaker timeout
        # this reproduces the paper's "divided by 10" under 10x load
        min_block_interval=0.15)


def params(deployment: DeploymentConfig) -> ChainParams:
    """Diem's chain parameters for *deployment*.

    The 130-account provisioning cap applies at the 200-node scales, where
    the authors could not work around it by retrying the setup tools.
    """
    large = deployment.node_count >= 200
    limits = AccountFactoryLimits(
        max_accounts=ACCOUNT_PROVISIONING_LIMIT if large else None)
    return ChainParams(
        name="diem",
        consensus_name="HotStuff",
        properties="deterministic",
        vm_name="move-vm",
        dapp_language="Move",
        signature_scheme=ED25519,
        block_tx_limit=BLOCK_TX_LIMIT,
        mempool_policy=MempoolPolicy(capacity=MEMPOOL_CAPACITY,
                                     per_sender_quota=PER_SENDER_QUOTA),
        confirmation_depth=0,
        commit_api="stream",
        account_limits=limits,
        exec_parallelism=4.0,
        # under constant 10x load Diem stops committing (§6.3): the bounded
        # pool keeps the node alive, but pool-management churn (every
        # rejected submission still pays the admission path) accumulates in
        # consensus buffers until progress halts
        # Diem charges gas with a dynamic congestion price
        # (modeled with the same controller as London)
        fee_policy=FeePolicy(dialect="eip1559"),
        overload=OverloadPolicy(
            response="commit_stall",
            consensus_tx_bytes=16 * 1024),
        perf_model=_perf)
