"""Parallel sweep orchestration with result caching.

The paper's evaluation is a *matrix* — 6 blockchains × 5 deployment
configurations × 5 DApp traces — and this package executes such matrices
the way BLOCKBENCH and Gromit argue a benchmark harness must: scaled-out
and incremental. A :class:`SweepSpec` declares the cells, a
``multiprocessing`` pool executes them with per-cell failure isolation
(:class:`CellFailure`), and a content-addressed :class:`ResultCache`
replays unchanged cells instantly.

Quickstart::

    from repro.sweep import SweepSpec, ResultCache, run_sweep

    spec = SweepSpec(chains=("quorum", "solana"),
                     configurations=("testnet",),
                     workloads=("native-1000",),
                     scales=(0.05,))
    sweep = run_sweep(spec, workers=4,
                      cache=ResultCache("~/.cache/repro-sweeps"))
    for outcome in sweep.outcomes:
        print(outcome.cell.label, outcome.status, outcome.summary)

Or from YAML via the CLI: ``python -m repro sweep spec.yaml --workers 4``.
See docs/SWEEPS.md for the spec dialect and cache invalidation rules.
"""

from repro.sweep.cache import (
    CACHE_VERSION,
    ResultCache,
    cell_key,
    cell_key_fields,
    code_version,
    spec_fingerprint,
)
from repro.sweep.runner import (
    CellEvent,
    CellFailure,
    CellOutcome,
    SweepResult,
    run_sweep,
)
from repro.sweep.spec import (
    CellOptions,
    SweepCell,
    SweepSpec,
    load_sweep,
    sweep_from_dict,
)

__all__ = [
    "CACHE_VERSION",
    "CellEvent",
    "CellFailure",
    "CellOptions",
    "CellOutcome",
    "ResultCache",
    "SweepCell",
    "SweepResult",
    "SweepSpec",
    "cell_key",
    "cell_key_fields",
    "code_version",
    "load_sweep",
    "run_sweep",
    "spec_fingerprint",
    "sweep_from_dict",
]
