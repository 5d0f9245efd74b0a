"""Algorand — BA* with sortition, AVM/TEAL smart contracts (§5.2).

Algorand's committee-based agreement keeps message complexity flat in the
number of nodes, so its throughput is nearly configuration-independent
(~885 TPS best, on the testnet — Table 1) and it is the only chain besides
Solana above 820 TPS on the geo-distributed devnet (§6.2). Its commit
latency is a few BA* rounds (observed 8.5 s average).

DIABLO integration detail the paper highlights: the natural *blocking*
submit API was too slow under load, so "we made DIABLO poll every appended
block to detect transaction commits, which improved significantly
Algorand's performance" — the default here is the polling API, and the
blocking variant is an ablation benchmark.

The AVM's hard opcode budget and 128-byte key-value state limit live in
:mod:`repro.vm.machines`; they are what reject the Mobility DApp ("budget
exceeded") and make the video sharing DApp unimplementable (§5.2).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.chain.mempool import MempoolPolicy
from repro.consensus.models import CommitteePerf
from repro.crypto.signing import ED25519
from repro.blockchains.base import ChainParams
from repro.blockchains.overload import OverloadPolicy
from repro.econ.fees import FeePolicy

if TYPE_CHECKING:
    from repro.consensus.models import WanProfile
    from repro.sim.deployment import DeploymentConfig

BLOCK_GAS_LIMIT = 75_600_000  # = 3,600 transfers per block
MEMPOOL_CAPACITY = 7_700
MIN_ROUND = 3.6
POLL_INTERVAL = 1.0


def _perf(profile: WanProfile) -> CommitteePerf:
    return CommitteePerf(profile, proposal_window=1.2, vote_steps=2,
                         overload_gamma=0.42, min_round=MIN_ROUND)


def params(deployment: DeploymentConfig) -> ChainParams:
    """Algorand chain parameters (identical across deployments)."""
    return ChainParams(
        name="algorand",
        consensus_name="BA*",
        properties="probabilistic",
        vm_name="avm",
        dapp_language="PyTeal",
        signature_scheme=ED25519,
        block_gas_limit=BLOCK_GAS_LIMIT,
        mempool_policy=MempoolPolicy(capacity=MEMPOOL_CAPACITY),
        confirmation_depth=0,        # "does not fork with high probability"
        commit_api="poll",           # the DIABLO polling workaround (§5.2)
        poll_interval=POLL_INTERVAL,
        exec_parallelism=2.0,
        # Algorand keeps committing at capacity through a 10x overload by
        # rejecting the excess at the node (§6.3 — throughput holds while
        # most submissions are turned away)
        # flat 1000-microAlgo minimum fee, no prioritization:
        # paying more buys nothing, so attackers can only flood
        fee_policy=FeePolicy(dialect="flat", min_fee=1),
        overload=OverloadPolicy(
            response="shed_load",
            consensus_tx_bytes=16 * 1024),
        perf_model=_perf)
