"""Canonical small-cluster recipes for every message-level protocol.

The ``python -m repro byzantine`` demo, examples/robustness_byzantine.py
and the adversarial test-suites all need the same thing: a working
n-replica cluster of protocol X with compressed timeouts and a horizon
long enough to commit. The recipes here are the ones the per-protocol
test-suites settled on (tests/consensus/), packaged so adversarial
callers don't re-derive them: Snowball in particular never finalises
with its WAN defaults at n=8 — it needs the small-committee parameters
and a split initial preference to exercise metastability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

from repro.common.errors import SpecError
# every protocol is imported here, not when its harness is built:
# perfbench's traced pass wraps the Replica subclasses that exist when it
# installs, before a workload builds its harness, and CI pins that pass
# at one Replica.on_message span per delivery
from repro.consensus.algorand import AlgorandReplica
from repro.consensus.avalanche import SnowballReplica
from repro.consensus.base import ConsensusHarness
from repro.consensus.clique import CliqueReplica
from repro.consensus.hotstuff import HotStuffReplica
from repro.consensus.ibft import IBFTReplica
from repro.consensus.raft import RaftReplica
from repro.consensus.towerbft import TowerReplica

if TYPE_CHECKING:
    from repro.consensus.auditor import SafetyAuditor
    from repro.consensus.base import Replica


@dataclass(frozen=True)
class ProtocolRecipe:
    """How to stand up one protocol's canonical test cluster."""

    name: str
    #: build replica ``index`` of ``n`` (seed offsets keep replicas with
    #: private RNGs — Raft timers, Snowball samplers — decorrelated)
    factory: Callable[[int, int, int], Replica]
    default_n: int = 4
    #: simulated horizon long enough for ~hundreds of commits
    until: float = 6.0
    payloads: int = 20
    seed: int = 1
    #: replicas a quorum protocol tolerates misbehaving; 0 for protocols
    #: with no Byzantine tolerance (CFT Raft, authority-list Clique) and
    #: for Snowball, whose tolerance is probabilistic, not a threshold
    byzantine_f: Callable[[int], int] = staticmethod(lambda n: (n - 1) // 3)
    #: how to feed the cluster work and run it to ``until``; None means
    #: the default submit-payloads-then-run loop
    driver: Optional[Callable[[ConsensusHarness, "ProtocolRecipe", float],
                              None]] = None


def _no_tolerance(n: int) -> int:
    return 0


def _drive_default(harness: ConsensusHarness, recipe: "ProtocolRecipe",
                   until: float) -> None:
    for i in range(recipe.payloads):
        harness.submit(f"tx-{i}")
    harness.run(until=until)


def _drive_raft(harness: ConsensusHarness, recipe: "ProtocolRecipe",
                until: float) -> None:
    """Raft commits only what a leader explicitly proposes.

    Run long enough to elect, hand the leader the payloads, then run
    out the horizon. No leader (the cluster failed to elect under the
    adversary) means nothing to propose — the liveness grade records it.
    """
    election_horizon = min(10.0, until / 2)
    harness.run(until=election_horizon)
    leaders = [r for r in harness.replicas
               if r.role == "leader" and r.node_id not in harness.crashed]
    if leaders:
        leader = max(leaders, key=lambda r: r.term)
        for i in range(recipe.payloads):
            leader.propose(f"tx-{i}")
    harness.run(until=until)


PROTOCOLS: Dict[str, ProtocolRecipe] = {
    "hotstuff": ProtocolRecipe(
        "hotstuff",
        lambda i, n, seed: HotStuffReplica(base_timeout=0.25)),
    "ibft": ProtocolRecipe(
        "ibft",
        lambda i, n, seed: IBFTReplica(base_timeout=0.5),
        until=8.0),
    "tower": ProtocolRecipe(
        "tower",
        lambda i, n, seed: TowerReplica(root_depth=4),
        until=15.0, payloads=10),
    "algorand": ProtocolRecipe(
        "algorand",
        lambda i, n, seed: AlgorandReplica(committee_size=5.0,
                                           proposer_count=3.0),
        until=20.0, payloads=10),
    "raft": ProtocolRecipe(
        "raft",
        lambda i, n, seed: RaftReplica(seed=seed + i),
        default_n=5, until=18.0, payloads=10, seed=7,
        byzantine_f=_no_tolerance, driver=_drive_raft),
    "clique": ProtocolRecipe(
        "clique",
        lambda i, n, seed: CliqueReplica(period=1.0, confirmations=2,
                                         seed=seed + i),
        until=25.0, payloads=12, seed=3,
        byzantine_f=_no_tolerance),
    "snowball": ProtocolRecipe(
        "snowball",
        lambda i, n, seed: SnowballReplica(
            k=3, alpha=2, beta=5,
            initial_preference=("A" if i % 2 else "B"),
            seed=seed + i),
        default_n=8, until=30.0, payloads=0, seed=5,
        byzantine_f=_no_tolerance),
}

#: which message-level protocol backs each benchmark chain (§2 of the
#: paper: Diem runs DiemBFT/HotStuff, Quorum runs IBFT, Solana runs
#: Tower BFT, Avalanche runs Snowball, Ethereum's testnets seal with
#: Clique proof-of-authority)
CHAIN_PROTOCOLS: Dict[str, str] = {
    "algorand": "algorand",
    "avalanche": "snowball",
    "diem": "hotstuff",
    "ethereum": "clique",
    "quorum": "ibft",
    "solana": "tower",
}


def protocol_for_chain(chain: str) -> str:
    try:
        return CHAIN_PROTOCOLS[chain]
    except KeyError:
        raise SpecError(
            f"no message-level protocol mapped for chain {chain!r}"
            f" (known: {sorted(CHAIN_PROTOCOLS)})")


def build_harness(protocol: str, n: Optional[int] = None,
                  seed: Optional[int] = None,
                  adversary: Optional[object] = None,
                  auditor: Optional[object] = None) -> ConsensusHarness:
    """Build (but do not run) the canonical cluster for *protocol*."""
    try:
        recipe = PROTOCOLS[protocol]
    except KeyError:
        raise SpecError(f"unknown protocol {protocol!r}"
                        f" (known: {sorted(PROTOCOLS)})")
    n = recipe.default_n if n is None else n
    seed = recipe.seed if seed is None else seed
    replicas = [recipe.factory(i, n, seed) for i in range(n)]
    return ConsensusHarness(replicas, regions=("ohio",), seed=seed,
                            adversary=adversary, auditor=auditor)


def run_audited(protocol: str, schedule,
                n: Optional[int] = None,
                seed: Optional[int] = None,
                until: Optional[float] = None,
                tracer: Optional[object] = None
                ) -> Tuple[ConsensusHarness, SafetyAuditor]:
    """Run *protocol* under *schedule* with a :class:`SafetyAuditor`.

    Returns the finished harness and its auditor; callers read
    ``auditor.verdict`` / ``auditor.report()`` and the harness's
    ``byzantine`` metrics namespace for degradation counters.
    """
    from repro.consensus.auditor import SafetyAuditor
    from repro.sim.byzantine import ByzantineAdversary

    recipe = PROTOCOLS[protocol]  # build_harness re-validates the name
    seed = recipe.seed if seed is None else seed
    adversary = ByzantineAdversary(schedule, seed=seed, tracer=tracer)
    auditor = SafetyAuditor()
    harness = build_harness(protocol, n=n, seed=seed,
                            adversary=adversary, auditor=auditor)
    drive = recipe.driver or _drive_default
    drive(harness, recipe, recipe.until if until is None else until)
    return harness, auditor
