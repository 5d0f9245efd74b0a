"""Consensus protocols: message-level implementations and analytic models."""

from repro import lazy_package

__all__ = [
    "AlgorandReplica",
    "BlockAttempt",
    "CliquePerf",
    "CliqueReplica",
    "CommitteePerf",
    "ConsensusHarness",
    "ConsensusPerfModel",
    "DAGPerf",
    "Decision",
    "DecisionOutcome",
    "HotStuffReplica",
    "IBFTReplica",
    "LeaderBFTPerf",
    "Message",
    "PoHPerf",
    "QuorumCertificate",
    "RaftReplica",
    "Replica",
    "SafetyAuditor",
    "SnowballReplica",
    "TowerReplica",
    "WanProfile",
    "sortition",
]

__getattr__, __dir__ = lazy_package(globals(), {
    "repro.consensus.algorand": ("AlgorandReplica", "sortition"),
    "repro.consensus.auditor": ("SafetyAuditor",),
    "repro.consensus.avalanche": ("SnowballReplica",),
    "repro.consensus.base": (
        "ConsensusHarness", "Decision", "Message", "Replica",
    ),
    "repro.consensus.clique": ("CliqueReplica",),
    "repro.consensus.hotstuff": ("HotStuffReplica", "QuorumCertificate"),
    "repro.consensus.ibft": ("IBFTReplica",),
    "repro.consensus.models": (
        "BlockAttempt", "CliquePerf", "CommitteePerf", "ConsensusPerfModel",
        "DAGPerf", "DecisionOutcome", "LeaderBFTPerf", "PoHPerf", "WanProfile",
    ),
    "repro.consensus.raft": ("RaftReplica",),
    "repro.consensus.towerbft": ("TowerReplica",),
})
