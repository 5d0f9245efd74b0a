"""The DIABLO workload suite: five realistic traces plus synthetic loads."""

from repro import lazy_package

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

__getattr__, __dir__ = lazy_package(globals(), {
    "repro.workloads.dota2": ("dota_trace",),
    "repro.workloads.fifa": ("fifa_trace",),
    "repro.workloads.nasdaq": ("STOCK_PROFILES", "expected_peak_tps",
                               "gafam_trace", "stock_trace"),
    "repro.workloads.registry": ("dapp_suite", "workload_registry"),
    "repro.workloads.synthetic": ("VISA_AVERAGE_TPS",
                                  "constant_transfer_trace",
                                  "deployment_challenge_trace"),
    "repro.workloads.traces": ("Trace", "burst_then_decay",
                               "schedule_from_rates"),
    "repro.workloads.uber": ("uber_trace",),
    "repro.workloads.youtube": ("derived_average_tps", "youtube_trace"),
})
