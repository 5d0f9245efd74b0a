"""Mobility service DApp workload — Uber (§3, Table 2).

The paper derives the world-wide Uber demand from the NYC 2015 study [11]
scaled by ridership growth and the NYC/world ratio: "24 x 36 = 864 TPS".
The universality experiment (§6.4) describes the resulting workload as
"810 TPS to 900 TPS ... during 120 seconds"; every request invokes the
computationally intensive ``checkDistance``.
"""

from __future__ import annotations

import numpy as np

from repro.contracts.mobility import GRID_SIZE
from repro.workloads.traces import Trace, schedule_from_rates

DURATION = 120.0
RATE_LOW = 810.0
RATE_HIGH = 900.0


def uber_trace() -> Trace:
    """The Uber matching workload (810-900 TPS for 120 s)."""
    seconds = int(DURATION)
    times = np.arange(seconds)
    mid = (RATE_LOW + RATE_HIGH) / 2
    amp = (RATE_HIGH - RATE_LOW) / 2
    rates = mid + amp * np.sin(2 * np.pi * times / 60.0)
    return Trace(
        name="uber",
        dapp="uber",
        function="checkDistance",
        args=(GRID_SIZE // 2, GRID_SIZE // 2),
        schedule=schedule_from_rates(rates.tolist()),
        description="Uber ride matching, 810-900 TPS for 120 s, CPU heavy")
