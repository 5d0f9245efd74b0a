"""Aggregate client populations: millions of users as arrival processes.

The classic DIABLO client layer simulates every client as an individual
process-like object, which caps realistic population size around the
thousands. A workload can instead declare a ``population:`` — e.g. five
million users with a per-user rate profile — and the harness simulates it
as two lanes:

* an **aggregate lane**: the non-cohort users collapse into one arrival
  process per population section. Each Secondary tick draws how many of
  those users transact this tick (Poisson via its normal approximation,
  optionally modulated by a two-state burst envelope, or the exact
  deterministic carry accumulator) and emits that count through the
  Secondary's one ``encode_batch``/``trigger_batch`` tick loop. The
  transactions are real — they hit admission, the mempool, consensus
  and the VM — but no per-client object exists for them;
* a **cohort lane**: a deterministic sample of individually-tracked
  clients (default :data:`DEFAULT_COHORT`) runs through the unchanged
  classic client path, preserving per-transaction latency/retry/fee-bump
  fidelity and feeding the lifecycle tracer. Cohort members behave
  exactly like single users (they carry the *per-user* rate schedule), so
  a population whose cohort covers every user is byte-identical to the
  classic client path.

Determinism: all stochastic draws come from :class:`~repro.common.rng.
BlockSampler` blocks on named streams derived from the experiment seed
(streams ``("population", "arrivals")`` and ``("population", "burst")``),
so a run is a pure function of (chain, deployment, spec, seed, scale) at
any sweep worker count. docs/SCALE.md documents the model's math, which
metrics are cohort-exact versus population-scaled, and the knee-finding
sweep this layer unlocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Sequence

from repro.common.errors import SpecError
from repro.common.rng import BlockSampler, RngFactory

if TYPE_CHECKING:  # imported lazily at runtime (spec.py imports us)
    from repro.chain.transaction import Transaction
    from repro.core.results import TransactionRecord
    from repro.core.spec import Interaction, LoadSchedule

#: individually-tracked clients sampled from the population by default
DEFAULT_COHORT = 1_000

#: supported aggregate arrival processes
ARRIVAL_KINDS = ("poisson", "burst", "deterministic")


@dataclass(frozen=True)
class PopulationSpec:
    """A client population declared by a workload's ``population:`` section.

    ``load`` is the **per-user** rate schedule (tiny numbers — a user who
    transacts every 20 minutes has a rate of ~0.0008 TPS); the population
    offers ``users`` times that. ``cohort`` members are ordinary clients
    carrying exactly this per-user schedule, which is what makes a
    cohort-only population byte-identical to the classic client path.

    ``arrival`` picks the aggregate lane's count process per tick:

    * ``"poisson"`` (default) — the normal approximation to a Poisson
      with mean ``lambda = scaled_rate * tick`` (exact enough at
      population scale, where ``lambda`` is large);
    * ``"burst"`` — the same Poisson modulated by a two-state Markov
      envelope: a fraction ``burst_fraction`` of the time the rate runs
      at ``burst_factor`` times nominal, the rest at a compensating
      lower rate, so the mean offered load is unchanged;
    * ``"deterministic"`` — the classic carry accumulator (no variance),
      used by the identity tests.
    """

    users: int
    interaction: "Interaction"
    load: "LoadSchedule"                 # per-user rate schedule
    cohort: Optional[int] = None         # None -> min(DEFAULT_COHORT, users)
    arrival: str = "poisson"
    burst_factor: float = 4.0
    burst_fraction: float = 0.1
    burst_length: float = 2.0            # mean burst duration, seconds
    location: str = ".*"
    view: str = ".*"

    def __post_init__(self) -> None:
        if self.users <= 0:
            raise SpecError(f"population.users must be positive: {self.users}")
        if self.cohort is not None:
            if self.cohort <= 0:
                raise SpecError(
                    f"population.cohort must be positive: {self.cohort}")
            if self.cohort > self.users:
                raise SpecError(
                    f"population.cohort ({self.cohort}) cannot exceed"
                    f" population.users ({self.users})")
        if self.arrival not in ARRIVAL_KINDS:
            raise SpecError(
                f"unknown population.arrival {self.arrival!r}"
                f" (have: {', '.join(ARRIVAL_KINDS)})")
        if self.arrival == "burst":
            if self.burst_factor < 1.0:
                raise SpecError("population.burst_factor must be >= 1")
            if not 0.0 < self.burst_fraction < 1.0:
                raise SpecError(
                    "population.burst_fraction must be in (0, 1)")
            if self.burst_factor * self.burst_fraction >= 1.0:
                # the off-burst rate (1 - f*B)/(1 - f) must stay positive
                # for the envelope to preserve the nominal mean rate
                raise SpecError(
                    "population.burst_factor * burst_fraction must be < 1"
                    " so the off-burst rate stays positive")
            if self.burst_length <= 0:
                raise SpecError("population.burst_length must be positive")

    @property
    def cohort_size(self) -> int:
        """Resolved cohort size (the default caps at the population)."""
        if self.cohort is not None:
            return self.cohort
        return min(DEFAULT_COHORT, self.users)

    @property
    def aggregate_users(self) -> int:
        """Users carried by the aggregate lane (population minus cohort)."""
        return self.users - self.cohort_size

    @property
    def duration(self) -> float:
        return self.load.duration

    def offered_load(self) -> float:
        """Average population-wide offered rate in (unscaled) TPS."""
        duration = self.load.duration
        if duration <= 0:
            return 0.0
        return self.users * self.load.total_transactions() / duration


class AggregateArrivals:
    """Per-tick transaction counts for the aggregate lane's users.

    One instance owns the population's named RNG streams exclusively (the
    :class:`BlockSampler` contract), and is stepped exactly once per
    Secondary tick via :meth:`count_at` — the draw sequence is therefore
    a deterministic function of the spec, the seed and the scale, never
    of wall-clock or worker count.
    """

    __slots__ = ("spec", "users", "duration", "tick", "_rate_at",
                 "_rate_scale", "_carry", "_normal", "_uniform",
                 "_bursting", "_p_enter", "_p_exit", "_on_mult", "_off_mult")

    def __init__(self, spec: PopulationSpec, rate_scale, tick: float,
                 rng_factory: RngFactory) -> None:
        self.spec = spec
        self.users = spec.aggregate_users
        self.duration = spec.load.duration
        self.tick = tick
        self._rate_at = spec.load.rate_at
        self._rate_scale = rate_scale
        self._carry = 0.0
        self._normal = BlockSampler(
            rng_factory.stream("population", "arrivals"), "standard_normal")
        self._uniform = (BlockSampler(
            rng_factory.stream("population", "burst"), "random")
            if spec.arrival == "burst" else None)
        self._bursting = False
        if spec.arrival == "burst":
            # two-state Markov envelope: mean burst length burst_length,
            # stationary on-fraction burst_fraction, mean-preserving rates
            f = spec.burst_fraction
            self._p_exit = min(1.0, tick / spec.burst_length)
            self._p_enter = min(1.0, self._p_exit * f / (1.0 - f))
            self._on_mult = spec.burst_factor
            self._off_mult = (1.0 - f * spec.burst_factor) / (1.0 - f)
        else:
            self._p_exit = self._p_enter = 0.0
            self._on_mult = self._off_mult = 1.0

    def count_at(self, t: float) -> int:
        """Aggregate transactions arriving in the tick starting at *t*.

        Call exactly once per tick, in tick order — the burst envelope
        advances one step per call and the Poisson draw consumes one
        normal variate whenever the tick's mean is positive.
        """
        lam = self._rate_scale(self._rate_at(t) * self.users) * self.tick
        if self._uniform is not None:
            # one uniform per tick, drawn unconditionally so the stream
            # position depends only on the tick index
            u = self._uniform.next()
            if self._bursting:
                if u < self._p_exit:
                    self._bursting = False
            elif u < self._p_enter:
                self._bursting = True
            lam *= self._on_mult if self._bursting else self._off_mult
        if self.spec.arrival == "deterministic":
            # the classic Secondary carry accumulator, variance-free
            self._carry += lam
            count = int(self._carry)
            self._carry -= count
            return count
        if lam <= 0.0:
            return 0
        # normal approximation to Poisson(lam): exact enough at population
        # scale, O(1) draws per tick at any lambda (see docs/SCALE.md)
        count = int(round(lam + math.sqrt(lam) * self._normal.next()))
        return count if count > 0 else 0


# -- result aggregation -------------------------------------------------------


def _latency_stats(latencies: Sequence[float]) -> Dict[str, float]:
    if not latencies:
        return {}
    ordered = sorted(latencies)
    n = len(ordered)
    return {
        "latency_avg_s": round(sum(ordered) / n, 3),
        "latency_p50_s": round(ordered[n // 2], 3),
        "latency_p95_s": round(ordered[min(n - 1, (n * 95) // 100)], 3),
    }


def population_block(spec: PopulationSpec,
                     cohort_records: Sequence["TransactionRecord"],
                     aggregate_sent: Sequence["Transaction"],
                     aggregate_unbuilt: int,
                     duration: float,
                     scale_factor: float) -> Dict[str, object]:
    """The ``population`` block of a :class:`BenchmarkResult` summary.

    Three clearly-labelled sections:

    * ``cohort_exact`` — per-transaction metrics from the tracked cohort
      (exact for those users: full retry/fee-bump/latency fidelity);
    * ``aggregate_lane`` — totals from the aggregate arrival process
      (directly simulated load, but no per-client identity):
      *aggregate_sent* plus the *aggregate_unbuilt* submissions the node
      turned away before the lane built them;
    * ``population_scaled`` — the full-population estimates: combined
      throughput/commit counts (both lanes are real simulated traffic)
      with latency quantiles borrowed from the cohort distribution.
    """
    unscale = (lambda rate: rate / scale_factor if scale_factor > 0
               else rate)
    cohort_committed = [r for r in cohort_records if r.committed]
    cohort_in_window = [r for r in cohort_committed
                        if r.committed_at <= duration]
    cohort: Dict[str, object] = {
        "submitted": len(cohort_records),
        "committed": len(cohort_committed),
        "commit_ratio": round(
            len(cohort_committed) / len(cohort_records), 4)
        if cohort_records else 0.0,
        "retries_per_tx": round(
            sum(r.retries for r in cohort_records) / len(cohort_records), 4)
        if cohort_records else 0.0,
    }
    cohort.update(_latency_stats([r.latency for r in cohort_committed]))
    agg_submitted = [tx for tx in aggregate_sent
                     if tx.submitted_at is not None]
    agg_committed = [tx for tx in agg_submitted
                     if tx.committed_at is not None and not tx.aborted]
    agg_in_window = [tx for tx in agg_committed
                     if tx.committed_at <= duration]
    agg_count = len(agg_submitted) + aggregate_unbuilt
    aggregate: Dict[str, object] = {
        "submitted": agg_count,
        "committed": len(agg_committed),
        "dropped": (sum(1 for tx in agg_submitted if tx.aborted)
                    + aggregate_unbuilt),
        "commit_ratio": round(len(agg_committed) / agg_count, 4)
        if agg_count else 0.0,
    }
    aggregate.update(_latency_stats(
        [tx.committed_at - tx.submitted_at for tx in agg_committed]))
    combined_submitted = len(cohort_records) + agg_count
    combined_committed = len(cohort_committed) + len(agg_committed)
    committed_in_window = len(cohort_in_window) + len(agg_in_window)
    scaled: Dict[str, object] = {
        "offered_load_tps": round(spec.offered_load(), 2),
        "submitted": combined_submitted,
        "committed": combined_committed,
        "commit_ratio": round(combined_committed / combined_submitted, 4)
        if combined_submitted else 0.0,
        "throughput_tps": round(
            unscale(committed_in_window / duration), 2)
        if duration > 0 else 0.0,
    }
    for key in ("latency_p50_s", "latency_p95_s"):
        if key in cohort:
            scaled[key] = cohort[key]
    return {
        "users": spec.users,
        "cohort_size": spec.cohort_size,
        "aggregate_users": spec.aggregate_users,
        "arrival": spec.arrival,
        "cohort_exact": cohort,
        "aggregate_lane": aggregate,
        "population_scaled": scaled,
    }
