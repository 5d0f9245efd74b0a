"""Unit helpers: time, data sizes and rates.

The simulation keeps time as ``float`` seconds of virtual time. These helpers
exist so that configuration code reads like the paper ("8 GiB", "10 Gbps",
"1.9 s block period") instead of bare numbers.
"""

from __future__ import annotations

# -- time ------------------------------------------------------------------

MILLISECOND = 1e-3
SECOND = 1.0
MINUTE = 60.0
HOUR = 3600.0


def ms(value: float) -> float:
    """Milliseconds to seconds."""
    return value * MILLISECOND


def seconds(value: float) -> float:
    """Identity, for symmetry in configuration code."""
    return value * SECOND


def minutes(value: float) -> float:
    """Minutes to seconds."""
    return value * MINUTE


# -- data sizes (bytes) ------------------------------------------------------

KB = 1000
MB = 1000**2
GB = 1000**3
KIB = 1024
MIB = 1024**2
GIB = 1024**3


# -- rates -------------------------------------------------------------------


def mbps(value: float) -> float:
    """Megabits per second to bytes per second."""
    return value * 1e6 / 8


def gbps(value: float) -> float:
    """Gigabits per second to bytes per second."""
    return value * 1e9 / 8


def tps(value: float) -> float:
    """Transactions per second (identity; documentation helper)."""
    return float(value)
