"""Quorum — IBFT consensus on the geth EVM (§5.2).

"Quorum [12] is a blockchain initiated by J.P. Morgan ... we exclusively run
Quorum with IBFT in our experiments." IBFT is a deterministic leader-based
BFT protocol that was "historically designed to never drop a client
request" (§6.5) — the mempool is unbounded — which makes Quorum commit every
transaction of every NASDAQ burst but collapse to zero under a constant
10,000 TPS load (§6.3): the growing resident pool inflates proposal times
until rounds outlive the IBFT round timer and round-change cascades starve
the chain.

Calibration (see EXPERIMENTS.md): the per-block transaction cap and the
pool-management overhead reproduce ~500 TPS at 13 s latency in the
community configuration (Fig. 3) and the Fig. 4 collapse.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.chain.mempool import MempoolPolicy
from repro.consensus.models import LeaderBFTPerf
from repro.crypto.signing import ECDSA
from repro.blockchains.base import ChainParams
from repro.blockchains.overload import OverloadPolicy
from repro.econ.fees import FeePolicy

if TYPE_CHECKING:
    from repro.consensus.models import WanProfile
    from repro.sim.deployment import DeploymentConfig

# Quorum genesis files for benchmarking use very large block gas limits;
# what binds in practice is geth's block building + IBFT round time.
BLOCK_GAS_LIMIT = 2_500_000_000
BLOCK_TX_LIMIT = 1_200
POOL_OVERHEAD_PER_TX = 12e-6
ROUND_TIMEOUT = 10.0


def _perf(profile: WanProfile) -> LeaderBFTPerf:
    return LeaderBFTPerf(
        profile,
        phases=2,                      # PREPARE + COMMIT after dissemination
        base_overhead=0.06,
        pool_overhead_per_tx=POOL_OVERHEAD_PER_TX,
        round_timeout=ROUND_TIMEOUT,
        per_node_overhead=3e-3,
        overload_gamma=0.12,
        payload_floor=0.0,             # nothing stops the collapse
        min_block_interval=0.8)   # IBFT block period


def params(deployment: DeploymentConfig) -> ChainParams:
    """Quorum's chain parameters (identical across deployments)."""
    return ChainParams(
        name="quorum",
        consensus_name="IBFT",
        properties="deterministic",
        vm_name="geth-evm",
        dapp_language="Solidity",
        signature_scheme=ECDSA,
        block_gas_limit=BLOCK_GAS_LIMIT,
        block_tx_limit=BLOCK_TX_LIMIT,
        mempool_policy=MempoolPolicy(capacity=None),  # never drops requests
        confirmation_depth=0,          # immediate finality (§6.2)
        commit_api="stream",           # web-socket streaming head (§5.2)
        exec_parallelism=4.0,
        # never dropping a request means the unbounded pool itself exhausts
        # memory under constant overload; rounds starve and IBFT stops
        # committing (the Fig. 4 collapse to zero)
        # GoQuorum inherits geth's fee market; permissioned
        # deployments typically run it near the floor
        fee_policy=FeePolicy(dialect="eip1559", min_fee=1),
        overload=OverloadPolicy(
            response="commit_stall",
            pool_tx_bytes=16 * 1024,
            consensus_tx_bytes=8 * 1024),
        perf_model=_perf)
