"""Avalanche — Snowball/DAG consensus, C-Chain geth EVM (§5.2).

The evaluation uses the C-Chain (EVM) with no subnets. Two facts dominate
its numbers: "Avalanche limits the gas per block to 8M gas and seems to
require a period between blocks of at least 1.9 seconds", so its transfer
throughput tops out around 8M / 21k / 1.9 ~ 200 TPS regardless of hardware
— the paper's conjecture that "Avalanche throttles its throughput" (§6.2,
confirmed in §6.3 when 10x load *raises* throughput by 1.38x as blocks pack
closer to the gas limit). Snowball polling adds its beta rounds of gossip
to the commit latency, and the backlog queueing produces the observed
average latencies in the tens of seconds (49 s in Table 1).

The authors fell back from the recommended RSA4096 signatures to ECDSA
because RSA signing "was taking too long" — the signing cost difference is
in :mod:`repro.crypto.signing` and exercised by an ablation benchmark.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.chain.mempool import MempoolPolicy
from repro.consensus.models import DAGPerf
from repro.crypto.signing import ECDSA
from repro.blockchains.base import ChainParams
from repro.blockchains.overload import OverloadPolicy
from repro.econ.fees import FeePolicy

if TYPE_CHECKING:
    from repro.consensus.models import WanProfile
    from repro.sim.deployment import DeploymentConfig

BLOCK_GAS_LIMIT = 8_000_000   # §5.2
BLOCK_PERIOD = 1.9            # §5.2
SNOWBALL_BETA = 12


def _perf(profile: WanProfile) -> DAGPerf:
    return DAGPerf(profile, beta=SNOWBALL_BETA, block_period=BLOCK_PERIOD,
                   overload_gamma=-0.06, packing_cap=1.8)


def params(deployment: DeploymentConfig) -> ChainParams:
    """Avalanche C-Chain parameters (identical across deployments)."""
    return ChainParams(
        name="avalanche",
        consensus_name="Avalanche",
        properties="probabilistic",
        vm_name="geth-evm",
        dapp_language="Solidity",
        signature_scheme=ECDSA,
        block_gas_limit=BLOCK_GAS_LIMIT,
        mempool_policy=MempoolPolicy(capacity=None),
        confirmation_depth=0,         # probabilistic finality at acceptance
        commit_api="stream",
        exec_parallelism=1.0,
        # the throttled block cadence bounds intake; excess load is shed at
        # the node and throughput even improves as blocks pack tighter (§6.3)
        # the C-chain of the paper's era ran a fixed 25-nAVAX
        # gas price (dynamic fees came later)
        fee_policy=FeePolicy(dialect="flat", min_fee=25),
        overload=OverloadPolicy(
            response="shed_load",
            consensus_tx_bytes=8 * 1024),
        perf_model=_perf)
