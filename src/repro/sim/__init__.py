"""Discrete-event simulation substrate: engine, network and machines."""

from repro import lazy_package

__all__ = [
    "ByzantineAdversary",
    "ByzantineSchedule",
    "C5_2XLARGE",
    "C5_9XLARGE",
    "C5_XLARGE",
    "CensorLeader",
    "DelayReorder",
    "Endpoint",
    "Equivocate",
    "Silence",
    "byzantine_events_from_dicts",
    "Engine",
    "EventHandle",
    "FaultInjector",
    "FaultSchedule",
    "Heal",
    "INSTANCE_TYPES",
    "LinkDegrade",
    "NodeCrash",
    "NodeRecover",
    "Partition",
    "RegionOutage",
    "InstanceType",
    "Machine",
    "Network",
    "PeriodicTask",
    "REGIONS",
    "bandwidth_between",
    "bandwidth_matrix",
    "rtt_between",
    "rtt_matrix",
    "spread_endpoints",
]

__getattr__, __dir__ = lazy_package(globals(), {
    "repro.sim.byzantine": (
        "ByzantineAdversary", "ByzantineSchedule", "CensorLeader",
        "DelayReorder", "Equivocate", "Silence", "byzantine_events_from_dicts",
    ),
    "repro.sim.engine": ("Engine", "EventHandle", "PeriodicTask"),
    "repro.sim.faults": (
        "FaultInjector", "FaultSchedule", "Heal", "LinkDegrade", "NodeCrash",
        "NodeRecover", "Partition", "RegionOutage",
    ),
    "repro.sim.machine": (
        "C5_2XLARGE", "C5_9XLARGE", "C5_XLARGE", "INSTANCE_TYPES",
        "InstanceType", "Machine",
    ),
    "repro.sim.network": (
        "Endpoint", "Network", "REGIONS", "bandwidth_between",
        "bandwidth_matrix", "rtt_between", "rtt_matrix", "spread_endpoints",
    ),
})
