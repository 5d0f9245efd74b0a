"""Result analysis: CSV export, comparison tables, time series, CDFs."""

from repro import lazy_package

__all__ = [
    "binding_subsystem",
    "cdf_points",
    "comparison_table",
    "dos_report",
    "economic_impact",
    "format_table",
    "knee_table",
    "population_report",
    "throughput_timeseries",
    "transactions_to_csv",
]

__getattr__, __dir__ = lazy_package(globals(), {
    "repro.analysis.summary": (
        "binding_subsystem", "cdf_points", "comparison_table", "dos_report",
        "economic_impact", "format_table", "knee_table", "population_report",
        "throughput_timeseries", "transactions_to_csv",
    ),
})
