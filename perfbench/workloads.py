"""The seven pinned workloads.

Sizes are part of the measurement contract: ``tx_per_wall_s`` divides by
the transaction count a workload produces, so changing a size makes every
number incomparable with earlier ones (``expected.json`` pins the counts).
Everything goes through the package's public API.

A workload is a factory ``(seed, size, cache_dir) -> run object``; building
the object is the program's set-up (spec construction,
``Primary.__init__``/``build_harness``), ``run()`` is the timed region a
user pays for, and ``outcome()`` — untimed — checks the outputs and reads
the simulated-clock results. ``size`` scales the pinned sizes for the
benchmark's own tests only.
"""

from __future__ import annotations

import hashlib
import resource
import statistics
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro
from repro.chain.receipt import ExecStatus
from repro.common.errors import SimulationError
from repro.consensus.testbed import build_harness
from repro.core.spec import (
    AccountSample,
    LoadSchedule,
    TransferSpec,
    simple_population_spec,
    simple_spec,
)
from repro.workloads import workload_registry

ACCOUNTS = 2_000
DRAIN = 60.0
SWEEP_CHAINS = ("algorand", "avalanche", "diem", "ethereum", "quorum",
                "solana")
SWEEP_WORKERS = 2
_EXEC_FAILURES = {status.value for status in ExecStatus} - {"success"}


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _result_sim(result: repro.BenchmarkResult) -> Dict[str, float]:
    """Simulated-clock results of one run (cohort + aggregate lane)."""
    lane = result.population.get("aggregate_lane", {})
    committed = (sum(1 for record in result.records if record.committed)
                 + lane.get("committed", 0))
    if lane:
        p50, p95 = lane["latency_p50_s"], lane["latency_p95_s"]
    else:
        p50 = result.latency_percentile(50)
        p95 = result.latency_percentile(95)
    return {
        "sim.submitted": len(result.records) + lane.get("submitted", 0),
        "sim.committed": committed,
        "sim.dropped": result.chain_stats["dropped"],
        "sim.height": result.chain_stats["height"],
        "sim.seconds": result.duration,
        "sim.throughput_tps": committed / result.duration,
        "sim.latency_p50_s": p50,
        "sim.latency_p95_s": p95,
    }


class Run:
    """What ``child.py`` reads off every run object besides ``init_s``."""

    def mark_run_end(self) -> None:
        """The boundary between the run phase and the results phase."""
        self.run_end = perf_counter()
        self.rss_after_run_mb = peak_rss_mb()


class ChainRun(Run):
    """One chain benchmark: ``Primary.run`` + ``summary()`` + ``to_json()``."""

    def __init__(self, chain: str, deployment: str, spec: Any, name: str,
                 scale: float, seed: int) -> None:
        self.spec = spec
        self.name = name
        start = perf_counter()
        self.primary = repro.Primary(chain, deployment, scale=scale,
                                     seed=seed)
        self.init_s = perf_counter() - start

    def run(self) -> None:
        self.result = self.primary.run(self.spec, workload_name=self.name,
                                       drain=DRAIN)
        self.mark_run_end()
        self.result.summary()
        self.text = self.result.to_json()

    def outcome(self) -> Dict[str, Any]:
        result, primary = self.result, self.primary
        network = primary.network
        sim = _result_sim(result)
        sim["sim.events"] = primary.engine.events_executed
        sim["sim.seconds"] = primary.engine.now
        failures = ([] if result.status == "ok"
                    else [f"status {result.status!r}, expected 'ok'"])
        aborts = result.abort_reasons()
        return {
            "tx": sim["sim.submitted"],
            "ops": 1,
            "failures": failures,
            "digest": _sha256(self.text),
            "sim": sim,
            "counts": {
                "emission.late_warnings": sum(
                    secondary.late_warnings
                    for secondary in primary.secondaries),
                "admission.retries_scheduled": network.retries_scheduled,
                "mempool.evicted": network.mempool.evicted,
                "consensus_model.failed_rounds": network.blocks_failed,
                "vm.aborted": sum(aborts.get(reason, 0)
                                  for reason in _EXEC_FAILURES),
                "engine.events": primary.engine.events_executed,
            },
        }


class ConsensusRun(Run):
    """Message-level consensus: protocols run back to back on ``n`` replicas."""

    N = 16
    PAYLOADS = 20_000

    def __init__(self, horizons: Tuple[Tuple[str, float], ...],
                 seed: int) -> None:
        self.horizons = horizons
        start = perf_counter()
        self.harnesses = [build_harness(protocol, n=self.N, seed=seed)
                          for protocol, _ in horizons]
        self.init_s = perf_counter() - start
        for harness in self.harnesses:
            for i in range(self.PAYLOADS):
                harness.submit(f"tx-{i}")

    def run(self) -> None:
        for harness, (_, until) in zip(self.harnesses, self.horizons):
            harness.run(until=until)
        self.mark_run_end()

    def outcome(self) -> Dict[str, Any]:
        failures: List[str] = []
        chains = []
        for harness, (protocol, _) in zip(self.harnesses, self.horizons):
            try:
                harness.check_agreement()
            except SimulationError as exc:
                failures.append(f"{protocol}: {exc}")
            chains.append(harness.committed_chain(0))
        decisions = [d for harness in self.harnesses
                     for d in harness.decisions if d.node == 0]
        gaps = [b.time - a.time for a, b in zip(decisions, decisions[1:])
                if b.time >= a.time]
        quartiles = statistics.quantiles(gaps, n=20)
        events = sum(h.engine.events_executed for h in self.harnesses)
        seconds = sum(h.engine.now for h in self.harnesses)
        routed = sum(h.messages_routed for h in self.harnesses)
        return {
            "tx": len(decisions),
            "ops": len(self.harnesses),
            "failures": failures,
            "digest": _sha256(repr(chains)),
            "sim": {
                "sim.submitted": self.PAYLOADS * len(self.harnesses),
                "sim.committed": len(decisions),
                "sim.dropped": sum(h.dropped_by_crash + h.dropped_by_fault
                                   + h.dropped_by_loss
                                   for h in self.harnesses),
                "sim.height": sum(chain[-1][0] for chain in chains),
                "sim.events": events,
                "sim.seconds": seconds,
                "sim.throughput_tps": len(decisions) / seconds,
                "sim.latency_p50_s": quartiles[9],
                "sim.latency_p95_s": quartiles[18],
            },
            "counts": {
                "engine.events": events,
                "network.messages": sum(h.network.messages_sent
                                        for h in self.harnesses),
                "consensus_msg.messages_routed": routed,
                "consensus_msg.decisions": len(decisions),
            },
        }


class SweepRun(Run):
    """``run_sweep`` of six chains over two workers against a result cache.

    ``expect_hits`` says which side of the cache the workload measures: a
    cold sweep must miss on every cell, a warm one must hit on every cell.
    """

    def __init__(self, scale: float, seed: int, cache_dir: str,
                 expect_hits: bool) -> None:
        start = perf_counter()
        self.spec = repro.SweepSpec(
            chains=SWEEP_CHAINS, configurations=("testnet",),
            workloads=("native-1000",), seeds=(seed,), scales=(scale,))
        self.cache = repro.ResultCache(cache_dir)
        self.init_s = perf_counter() - start
        self.expect_hits = expect_hits

    def run(self) -> None:
        self.sweep = repro.run_sweep(self.spec, workers=SWEEP_WORKERS,
                                     cache=self.cache)
        self.mark_run_end()

    def outcome(self) -> Dict[str, Any]:
        sweep = self.sweep
        failures = []
        sims = []
        for outcome in sweep.outcomes:
            label = outcome.cell.label
            if outcome.result_json is None:
                failures.append(f"{label}: {outcome.failure}")
                continue
            if outcome.result.status != "ok":
                failures.append(f"{label}: status {outcome.result.status!r}")
            if outcome.cached != self.expect_hits:
                failures.append(f"{label}: cached={outcome.cached}")
            sims.append(_result_sim(outcome.result))
        sim = {key: sum(cell[key] for cell in sims) for key in sims[0]}
        for key in ("sim.latency_p50_s", "sim.latency_p95_s"):
            sim[key] /= len(sims)
        sim["sim.events"] = 0     # executed in pool workers, not visible
        cell_run_s = sum(o.wall_seconds for o in sweep.outcomes)
        return {
            "tx": sim["sim.submitted"],
            "ops": len(sweep.outcomes),
            "failures": failures,
            # byte equality of every cell: a warm pass must reproduce the
            # digest of the cold sweep that filled its cache
            "digest": _sha256("".join(o.result_json or ""
                                      for o in sweep.outcomes)),
            "sim": sim,
            "counts": {
                "sweep.cache_hits": sweep.cache_hits,
                "sweep.cache_misses": sweep.cache_misses,
            },
            # raw seconds inside the timed region
            "host_s": {
                "sweep.cell_run_s": cell_run_s,
                "sweep.overhead_s": sweep.wall_seconds
                - cell_run_s / SWEEP_WORKERS,
            },
        }


def _transfer(chain: str, rate: float, duration: float) -> Callable:
    def build(seed: int, size: float, cache_dir: Optional[str]) -> ChainRun:
        spec = simple_spec(TransferSpec(AccountSample(ACCOUNTS)),
                           LoadSchedule.constant(rate, duration * size))
        return ChainRun(chain, "testnet", spec, "perfbench", 1.0, seed)
    return build


def _dapp_mobility(seed: int, size: float,
                   cache_dir: Optional[str]) -> ChainRun:
    trace = workload_registry()["dapp-mobility"]
    return ChainRun("quorum", "consortium", trace.spec(accounts=ACCOUNTS),
                    trace.name, 0.05 * size, seed)


def _population(seed: int, size: float, cache_dir: Optional[str]) -> ChainRun:
    spec = simple_population_spec(
        users=1_000_000, interaction=TransferSpec(AccountSample(ACCOUNTS)),
        rate_per_user=0.002, duration=75.0 * size)
    return ChainRun("algorand", "testnet", spec, "population-1000000", 1.0,
                    seed)


def _consensus(seed: int, size: float,
               cache_dir: Optional[str]) -> ConsensusRun:
    return ConsensusRun((("hotstuff", 3.0 * size), ("ibft", 0.5 * size)),
                        seed)


def _sweep(expect_hits: bool) -> Callable:
    def build(seed: int, size: float, cache_dir: Optional[str]) -> SweepRun:
        if cache_dir is None:
            raise SystemExit("sweep workloads need --cache DIR")
        return SweepRun(0.15 * size, seed, cache_dir, expect_hits)
    return build


#: name -> factory, in run order; BENCHMARK.json says why each one exists
WORKLOADS: Dict[str, Callable[[int, float, Optional[str]], Run]] = {
    "transfer-steady": _transfer("diem", 1_000.0, 60.0),
    "transfer-saturated": _transfer("ethereum", 3_000.0, 30.0),
    "dapp-mobility": _dapp_mobility,
    "population-1m": _population,
    "consensus-msg": _consensus,
    "sweep-cold": _sweep(expect_hits=False),
    "sweep-warm": _sweep(expect_hits=True),
}
