"""The DIABLO workload suite: five realistic traces plus synthetic loads."""

from repro.workloads.dota2 import dota_trace
from repro.workloads.fifa import fifa_trace
from repro.workloads.nasdaq import (
    STOCK_PROFILES,
    expected_peak_tps,
    gafam_trace,
    stock_trace,
)
from repro.workloads.synthetic import (
    VISA_AVERAGE_TPS,
    constant_transfer_trace,
    deployment_challenge_trace,
)
from repro.workloads.traces import (
    Trace,
    burst_then_decay,
    schedule_from_rates,
)
from repro.workloads.uber import uber_trace
from repro.workloads.youtube import derived_average_tps, youtube_trace


def dapp_suite() -> dict:
    """The five default DIABLO DApp workloads (Table 2), by name."""
    return {
        "exchange": gafam_trace(),
        "gaming": dota_trace(),
        "web": fifa_trace(),
        "mobility": uber_trace(),
        "video": youtube_trace(),
    }


def workload_registry() -> dict:
    """Every named workload trace: the vocabulary of ``--workload`` and of
    sweep specifications (``dapp-*``, ``nasdaq-*``, ``native-*``)."""
    registry = {f"dapp-{name}": trace for name, trace in dapp_suite().items()}
    for stock in ("google", "amazon", "facebook", "microsoft", "apple"):
        registry[f"nasdaq-{stock}"] = stock_trace(stock)
    registry["native-100"] = constant_transfer_trace(100)
    registry["native-1000"] = constant_transfer_trace(1_000)
    registry["native-10000"] = constant_transfer_trace(10_000)
    return registry


__all__ = [
    "STOCK_PROFILES",
    "Trace",
    "VISA_AVERAGE_TPS",
    "burst_then_decay",
    "constant_transfer_trace",
    "dapp_suite",
    "deployment_challenge_trace",
    "derived_average_tps",
    "dota_trace",
    "expected_peak_tps",
    "fifa_trace",
    "gafam_trace",
    "schedule_from_rates",
    "stock_trace",
    "uber_trace",
    "workload_registry",
    "youtube_trace",
]
