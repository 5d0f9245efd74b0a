"""Ethereum — Clique proof-of-authority on geth (§5.2).

The paper runs geth with Clique because proof-of-work "inherently limits
its throughput (to the amount of gas allowed per block divided by the block
period)" — and that quotient still binds under Clique: a fixed period
between blocks and a per-block gas limit. Clique can fork under message
delays [16], so clients wait extra confirmations.

Calibration: a 5-second period with a ~1.5M-gas block reproduces the
observations — Ethereum commits a trickle in every experiment ("keep
committing transactions until the end of the experiment", §6.5), needs
~118 s to finish the 800-transaction Google burst, commits ~64 % of the
Microsoft burst, and manages ~0.1 % of a 10 kTPS constant load (§6.3).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.chain.mempool import MempoolPolicy
from repro.consensus.models import CliquePerf
from repro.crypto.signing import ECDSA
from repro.blockchains.base import ChainParams
from repro.blockchains.overload import OverloadPolicy
from repro.econ.fees import FeePolicy

if TYPE_CHECKING:
    from repro.consensus.models import WanProfile
    from repro.sim.deployment import DeploymentConfig

BLOCK_PERIOD = 5.0
BLOCK_GAS_LIMIT = 3_000_000
CONFIRMATIONS = 3
TXPOOL_CAPACITY = 50_000   # geth --txpool.globalslots + queue


def _perf(profile: WanProfile) -> CliquePerf:
    return CliquePerf(profile, period=BLOCK_PERIOD, overload_gamma=0.05)


def params(deployment: DeploymentConfig) -> ChainParams:
    """Ethereum/Clique chain parameters (identical across deployments)."""
    return ChainParams(
        name="ethereum",
        consensus_name="Clique",
        properties="eventual",
        vm_name="geth-evm",
        dapp_language="Solidity",
        signature_scheme=ECDSA,
        block_gas_limit=BLOCK_GAS_LIMIT,
        mempool_policy=MempoolPolicy(capacity=TXPOOL_CAPACITY,
                                     evict_oldest=True),
        confirmation_depth=CONFIRMATIONS,
        commit_api="stream",
        exec_parallelism=1.0,          # geth executes blocks single-threaded
        # geth survives sustained overload by turning submissions away
        # cheaply at the txpool door and keeps "committing transactions
        # until the end of the experiment" (§6.5) — a trickle, but alive
        # the London fee market: dynamic base fee over a
        # 3M-gas block, priority tips break ties
        fee_policy=FeePolicy(dialect="eip1559"),
        overload=OverloadPolicy(
            response="shed_load",
            consensus_tx_bytes=16 * 1024),
        perf_model=_perf)
