"""Synthetic workloads: constant-rate native transfers (§6.2, §6.3).

The scalability and robustness experiments stress each chain with native
transfers at a constant rate — 1,000 TPS ("the same order of magnitude as
the average load of the Visa system") and 10,000 TPS.
"""

from __future__ import annotations

from repro.core.spec import LoadSchedule
from repro.workloads.traces import Trace

DEFAULT_DURATION = 120.0
VISA_AVERAGE_TPS = 1_736  # 150M transactions/day (§6.2 footnote)


def constant_transfer_trace(rate: float,
                            duration: float = DEFAULT_DURATION) -> Trace:
    """Native transfers at a constant *rate* for *duration* seconds."""
    return Trace(
        name=f"native-{int(rate)}",
        dapp=None,
        function="transfer",
        schedule=LoadSchedule.constant(rate, duration),
        description=f"native transfers at {rate:.0f} TPS for {duration:.0f} s")


def deployment_challenge_trace() -> Trace:
    """The §6.2 scalability workload: 1,000 TPS for 120 s."""
    return constant_transfer_trace(1_000.0)
