"""Result analysis: CSV export, comparison tables, time series, CDFs."""

from repro.analysis.summary import (
    binding_subsystem,
    cdf_points,
    comparison_table,
    dos_report,
    economic_impact,
    format_table,
    knee_table,
    population_report,
    throughput_timeseries,
    transactions_to_csv,
)

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
