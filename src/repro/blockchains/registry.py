"""Registry of the six evaluated blockchains (Table 4)."""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.blockchains import (
    algorand,
    avalanche,
    diem,
    ethereum,
    quorum,
    solana,
)
from repro.blockchains.base import BlockchainNetwork, ChainParams
from repro.common.errors import ConfigurationError
from repro.sim.deployment import DeploymentConfig, get_configuration
from repro.sim.engine import Engine

if TYPE_CHECKING:
    from repro.blockchains.base import ExperimentScale

ParamsFactory = Callable[[DeploymentConfig], ChainParams]

CHAINS: Dict[str, ParamsFactory] = {
    "algorand": algorand.params,
    "avalanche": avalanche.params,
    "diem": diem.params,
    "ethereum": ethereum.params,
    "quorum": quorum.params,
    "solana": solana.params,
}

CHAIN_NAMES = tuple(sorted(CHAINS))


def chain_params(name: str, deployment: DeploymentConfig) -> ChainParams:
    """Build the ChainParams for chain *name* in *deployment*."""
    try:
        factory = CHAINS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown blockchain {name!r}; available: {CHAIN_NAMES}") from None
    return factory(deployment)


def build_network(name: str, deployment: str | DeploymentConfig,
                  engine: Optional[Engine] = None,
                  scale: Optional[ExperimentScale] = None,
                  seed: int = 0) -> BlockchainNetwork:
    """Deploy chain *name* in *deployment* on a (possibly fresh) engine."""
    if isinstance(deployment, str):
        deployment = get_configuration(deployment)
    params = chain_params(name, deployment)
    return BlockchainNetwork(params, deployment, engine or Engine(),
                             scale=scale, seed=seed)


def characteristics_table() -> List[Dict[str, str]]:
    """Rows of the paper's Table 4 (blockchain characteristics)."""
    from repro.sim.deployment import TESTNET
    rows = []
    for name in CHAIN_NAMES:
        params = chain_params(name, TESTNET)
        rows.append({
            "blockchain": params.name,
            "properties": params.properties,
            "consensus": params.consensus_name,
            "vm": params.vm_name,
            "dapp_language": params.dapp_language,
        })
    return rows
