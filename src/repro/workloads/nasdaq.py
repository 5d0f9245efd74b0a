"""Exchange DApp workload — NASDAQ opening trades (§3, Table 2).

"The NASDAQ experiences a boom of trades at its opening at 9 AM Eastern
Time Zone. ... These workloads proceed in burst by experiencing an initial
demand of about 800 TPS for Google, 1300 TPS for Amazon, 3000 TPS for
Facebook, 4000 TPS for Microsoft and 10,000 TPS for Apple before dropping
to 10-60 TPS. The accumulated workload, denoted GAFAM, runs for 3 minutes
and experiences a peak of 19,800 TPS before dropping between 25-140 TPS."

The availability experiment (§6.5, Fig. 6) uses the Google, Microsoft and
Apple bursts separately.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.workloads.traces import Trace, burst_then_decay

DURATION = 180.0  # "runs for 3 minutes"
DECAY_TIME = 1.2  # seconds for the opening boom to subside

# stock -> (opening peak TPS, steady floor TPS, buy function)
STOCK_PROFILES: Dict[str, Tuple[float, float, str]] = {
    "google": (800.0, 1.0, "buyGoogle"),
    "amazon": (1_300.0, 2.0, "buyAmazon"),
    "facebook": (3_000.0, 5.0, "buyFacebook"),
    "microsoft": (4_000.0, 8.0, "buyMicrosoft"),
    "apple": (10_000.0, 20.0, "buyApple"),
}


def stock_trace(stock: str) -> Trace:
    """The opening-burst workload of one GAFAM stock."""
    peak, floor, function = STOCK_PROFILES[stock]
    return Trace(
        name=f"nasdaq-{stock}",
        dapp="exchange",
        function=function,
        schedule=burst_then_decay(peak, floor, DURATION, DECAY_TIME),
        description=f"NASDAQ opening trades for {stock.capitalize()}")


def gafam_trace() -> Trace:
    """The accumulated GAFAM workload (the Fig. 2 Exchange column)."""
    profiles = list(STOCK_PROFILES.values())
    seconds = int(DURATION)
    rates: List[float] = []
    import numpy as np
    times = np.arange(seconds)
    total = np.zeros(seconds)
    for peak, floor, _ in profiles:
        total += floor + (peak - floor) * np.exp(-times / DECAY_TIME)
    rates = total.tolist()
    from repro.workloads.traces import schedule_from_rates
    # one buy function round-robins per encode; the combined trace drives
    # the whole ExchangeContractGafam through buyApple (the hottest stock)
    return Trace(
        name="nasdaq-gafam",
        dapp="exchange",
        function="buyApple",
        schedule=schedule_from_rates(rates),
        description="Accumulated GAFAM opening workload (peak ~19.8 kTPS)")


def expected_peak_tps() -> float:
    """The combined opening-second demand (paper: 19,800 TPS)."""
    return sum(peak for peak, _, _ in STOCK_PROFILES.values())
