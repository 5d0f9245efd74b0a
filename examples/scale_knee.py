#!/usr/bin/env python3
"""Find each chain's population knee: where millions of users outrun it.

Reproduces: no single figure — it exercises the aggregate-population
layer (docs/SCALE.md) the classic per-client harness cannot reach: the
paper's testbed tops out at hundreds of client threads (§5.1), while a
real deployment question is "how many *users* can this chain carry?".

Two chains with opposite capacity profiles run the same population
ladder — 100 thousand, 1 million and 5 million users, each user
averaging one transfer every ~8 minutes (0.002 TPS) — and the knee
table reports, per population size, the offered load, the delivered
throughput, the commit ratio, and which subsystem binds first
(admission, mempool, consensus or memory):

* **quorum** (IBFT, unbounded pool) keeps a clean commit ratio until
  consensus throughput saturates, then the backlog grows;
* **ethereum** (PoW-style model, small blocks) hits its knee an order
  of magnitude earlier.

Deterministic: every number reproduces byte-for-byte at a fixed seed
and scale, at any sweep worker count. The committed six-chain version
of this table lives in EXPERIMENTS.md §Population scale; docs/SCALE.md
documents the regeneration command.
"""

from __future__ import annotations

from repro.analysis.summary import format_table, knee_table
from repro.sweep import CellOptions, SweepSpec, run_sweep
from repro.workloads.synthetic import constant_transfer_trace

CHAINS = ("quorum", "ethereum")
POPULATIONS = (100_000, 1_000_000, 5_000_000)

#: one transfer per user every ~8 minutes — a busy consumer app
RATE_PER_USER = 0.002
DURATION = 30.0
SCALE = 0.1
SEED = 1


def knee_tables() -> dict:
    """Each chain's knee-table rows over the population ladder."""
    # a constant 1 TPS shape; the populations axis normalizes it to
    # RATE_PER_USER per user
    shape = constant_transfer_trace(1.0, DURATION)
    sweep = run_sweep(SweepSpec(
        chains=CHAINS, configurations=("testnet",), workloads=(shape,),
        seeds=(SEED,), scales=(SCALE,), populations=POPULATIONS,
        options=CellOptions(rate_per_user=RATE_PER_USER, cohort=1_000)))
    return {chain: knee_table({
        outcome.cell.population: outcome.result
        for outcome in sweep.outcomes if outcome.cell.chain == chain})
        for chain in CHAINS}


def main() -> None:
    for chain, rows in knee_tables().items():
        print(f"\n-- {chain}: population ladder at"
              f" {RATE_PER_USER:g} TPS/user (scale {SCALE:g}) --")
        print(format_table(rows))
        knees = [row for row in rows if row["knee"]]
        if knees:
            knee = knees[0]
            print(f"knee: {knee['users']:,} users"
                  f" ({knee['offered_load_tps']:,.0f} TPS offered)"
                  f" — {knee['binding']} binds")
        else:
            print(f"no knee up to {rows[-1]['users']:,} users"
                  " — raise the ladder")


if __name__ == "__main__":
    main()
