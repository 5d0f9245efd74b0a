"""Deployment configurations (Table 3, left side).

Five configurations, from the idealised datacenter to the 200-machine
geo-distributed consortium. Machines are "spread equally among different
geo-distributed regions in five continents" (§5.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.common.errors import ConfigurationError
from repro.sim.machine import C5_2XLARGE, C5_9XLARGE, C5_XLARGE
from repro.sim.network import REGIONS, spread_endpoints

if TYPE_CHECKING:
    from repro.sim.machine import InstanceType
    from repro.sim.network import Endpoint


@dataclass(frozen=True)
class DeploymentConfig:
    """Where and on what hardware the blockchain nodes run."""

    name: str
    node_count: int
    instance_type: InstanceType
    regions: Tuple[str, ...]

    def __post_init__(self) -> None:
        if self.node_count <= 0:
            raise ConfigurationError("node_count must be positive")
        if not self.regions:
            raise ConfigurationError("at least one region required")
        for region in self.regions:
            if region not in REGIONS:
                raise ConfigurationError(f"unknown region {region!r}")

    def endpoints(self, prefix: str = "node") -> List[Endpoint]:
        """Node endpoints spread equally across the regions."""
        return spread_endpoints(self.node_count, self.regions, prefix)

    def node_regions(self) -> List[str]:
        return [e.region for e in self.endpoints()]


DATACENTER = DeploymentConfig("datacenter", 10, C5_9XLARGE, ("ohio",))
TESTNET = DeploymentConfig("testnet", 10, C5_XLARGE, ("ohio",))
DEVNET = DeploymentConfig("devnet", 10, C5_XLARGE, REGIONS)
COMMUNITY = DeploymentConfig("community", 200, C5_XLARGE, REGIONS)
CONSORTIUM = DeploymentConfig("consortium", 200, C5_2XLARGE, REGIONS)

CONFIGURATIONS: Dict[str, DeploymentConfig] = {
    c.name: c for c in (DATACENTER, TESTNET, DEVNET, COMMUNITY, CONSORTIUM)
}


def get_configuration(name: str) -> DeploymentConfig:
    try:
        return CONFIGURATIONS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown deployment configuration {name!r};"
            f" available: {sorted(CONFIGURATIONS)}") from None
