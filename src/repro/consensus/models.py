"""Analytic consensus performance models (fidelity level "analytic").

Message-level protocol simulation at 200 nodes and 10,000 TPS would need
billions of events; instead, the blockchain runtimes use per-protocol
latency/throughput models derived from the protocols' message patterns and
the Table 3 WAN matrix:

* **WAN profile** — given where the validators sit, the quantiles of the
  pairwise RTT distribution and a gossip-tree dissemination time for a block
  of a given size (cross-region hop to one peer per region at the pairwise
  bandwidth, then intra-region fan-out at datacenter speed).
* **Decision latency** — per protocol family: number of voting phases times
  an RTT quantile (leader-based BFT), polling rounds (Avalanche), committee
  vote steps (Algorand BA*), or slot cadence (Solana PoH).
* **Overload response** — how the achievable block payload degrades as the
  resident transaction backlog grows. The *shape* of each curve is the
  documented mechanism class from the paper's §6.3/§6.6 discussion
  (leader-based deterministic BFT collapses; probabilistic/eventually
  consistent chains degrade gracefully; Avalanche throttles below capacity
  and catches up under pressure); the exponents are calibrated against
  Fig. 4's measured ratios (see EXPERIMENTS.md).

Each model is validated against the message-level implementation at small
scale in ``tests/consensus/test_model_calibration.py``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.stats import quantile
from repro.sim.network import (
    INTRA_REGION_BANDWIDTH,
    INTRA_REGION_RTT,
    bandwidth_matrix,
    rtt_matrix,
    REGIONS,
)


class WanProfile:
    """Latency/bandwidth statistics for a validator placement.

    Immutable after construction: the placement, the pairwise RTTs and the
    per-region validator counts are fixed here, so the statistics the
    models ask for on every block are computed once per profile.
    """

    def __init__(self, node_regions: Sequence[str]) -> None:
        if not node_regions:
            raise ConfigurationError("WanProfile needs at least one node")
        self.node_regions = list(node_regions)
        index = {region: i for i, region in enumerate(REGIONS)}
        for region in self.node_regions:
            if region not in index:
                raise ConfigurationError(f"unknown region {region!r}")
        self._index = index
        self._rtt = rtt_matrix()
        self._bw = bandwidth_matrix()
        idx = np.array([index[r] for r in self.node_regions])
        pair_rtts = self._rtt[np.ix_(idx, idx)]
        # exclude self-pairs when more than one node
        n = len(idx)
        if n > 1:
            mask = ~np.eye(n, dtype=bool)
            self._pair_rtts = pair_rtts[mask]
        else:
            self._pair_rtts = np.array([INTRA_REGION_RTT])
        self._region_counts = Counter(self.node_regions)
        self.distinct_regions = sorted(self._region_counts)
        self._sorted_rtts: Optional[np.ndarray] = None
        self._rtt_quantiles: Dict[float, float] = {}

    @property
    def n(self) -> int:
        return len(self.node_regions)

    def rtt_quantile(self, q: float) -> float:
        """The *q*-quantile of pairwise validator RTTs, in seconds.

        Quorum formation waits for the fastest 2/3 of the network, so BFT
        models use q ~= 0.66; gossip completion uses q ~= 0.9. Each
        distinct *q* is computed once: the models ask for the same two or
        three quantiles on every block, from the RTTs sorted once.
        """
        value = self._rtt_quantiles.get(q)
        if value is None:
            if self._sorted_rtts is None:
                self._sorted_rtts = np.sort(self._pair_rtts)
            value = self._rtt_quantiles[q] = quantile(self._sorted_rtts, q)
        return value

    def dissemination_time(self, payload_bytes: int, leader_region: str,
                           flat: bool = False, relay_cap: int = 4) -> float:
        """Block dissemination time from *leader_region*.

        ``flat=False`` models gossip relaying (a tree): the leader ships one
        copy per destination region over the pairwise link, then the block
        fans out inside each region over the 10 Gbps fabric. ``flat=True``
        models a leader that pushes copies to direct peers in every region
        (devp2p-style broadcast of leader-based chains); peers beyond
        ``relay_cap`` per region receive the block by intra-region relay.
        """
        i = self._index[leader_region]
        counts = self._region_counts
        worst = 0.0
        for region in self.distinct_regions:
            j = self._index[region]
            copies = min(counts[region], relay_cap) if flat else 1
            transfer = copies * payload_bytes / float(self._bw[i, j])
            propagation = float(self._rtt[i, j]) / 2.0
            worst = max(worst, transfer + propagation)
        intra = payload_bytes / INTRA_REGION_BANDWIDTH + INTRA_REGION_RTT / 2
        return worst + intra


@dataclass
class BlockAttempt:
    """Inputs to a consensus decision for one block.

    ``backlog`` and ``arrival_rate`` are expressed in *unscaled* (real
    experiment) units — the runtime divides out its scale factor — so the
    models' calibrated constants are scale-independent.
    """

    tx_count: int
    payload_bytes: int
    exec_cpu_seconds: float
    backlog: int              # resident mempool size at proposal time
    leader_region: str
    arrival_rate: float = 0.0  # recent client submission rate (TPS)


@dataclass
class DecisionOutcome:
    """Result of one consensus attempt.

    ``breakdown`` optionally attributes the latency to protocol phases
    (``propose``/``vote``/``execute``/``view_change``); it is advisory
    observability data consumed by the lifecycle tracer and never feeds
    back into the simulation.
    """

    latency: float
    committed: bool
    view_changes: int = 0
    breakdown: Optional[Dict[str, float]] = None


class ConsensusPerfModel:
    """Base class: per-protocol latency/throughput/overload behaviour."""

    #: overload exponent: effective payload multiplier is
    #: ``(1 + backlog/block_capacity) ** -overload_gamma``. Zero disables it.
    overload_gamma: float = 0.0
    #: lower bound on the payload multiplier (0 = may collapse entirely)
    payload_floor: float = 0.0
    #: fraction of adversarial validators the protocol tolerates before
    #: quorum formation among honest replicas becomes impossible (BFT
    #: families: f/n < 1/3; proof-of-authority tolerates any minority of
    #: sealers for liveness and overrides this)
    byzantine_tolerance: float = 1.0 / 3.0

    def __init__(self, profile: WanProfile) -> None:
        self.profile = profile
        self._byz_view_change_acc = 0.0

    # -- byzantine degradation ---------------------------------------------------

    def _byzantine_round_penalty(self) -> float:
        """Seconds one adversary-induced timeout/extra round costs."""
        return 4.0 * self.profile.rtt_quantile(0.9) + 1.0

    def apply_byzantine(self, outcome: DecisionOutcome,
                        fraction: float) -> DecisionOutcome:
        """Degrade a benign decision for an adversarial validator
        *fraction* (the runtime samples it per block from its
        ``ByzantineSchedule``; zero is benign).

        Below the tolerance threshold, quorum formation waits on honest
        replicas only — the vote phase stretches by
        ``1/(1 - fraction/tolerance)`` (capped) — and adversarial leader
        slots surface as extra view changes at a deterministic rate of
        *fraction* per block. At or beyond the
        threshold the honest quorum cannot form at all: the attempt burns
        a timeout round and fails, leaving the block for a retry once the
        adversary stops.
        """
        if fraction <= 0.0:
            return outcome
        penalty = self._byzantine_round_penalty()
        if fraction >= self.byzantine_tolerance:
            return DecisionOutcome(
                penalty, committed=False,
                view_changes=outcome.view_changes + 1,
                breakdown={"byzantine": penalty})
        stretch = min(8.0, 1.0 / (1.0 - fraction / self.byzantine_tolerance))
        breakdown = dict(outcome.breakdown or {})
        vote_part = breakdown.get("vote", outcome.latency)
        extra = vote_part * (stretch - 1.0)
        # *fraction* of the leader slots belong to the adversary:
        # accumulate them into whole wasted rounds deterministically
        self._byz_view_change_acc += fraction
        extra_view_changes = int(self._byz_view_change_acc)
        self._byz_view_change_acc -= extra_view_changes
        extra += extra_view_changes * penalty
        breakdown["byzantine"] = extra
        return DecisionOutcome(
            outcome.latency + extra, committed=outcome.committed,
            view_changes=outcome.view_changes + extra_view_changes,
            breakdown=breakdown)

    # -- scheduling --------------------------------------------------------------

    def next_block_delay(self, last_round_latency: float) -> float:
        """Seconds between consecutive block proposals."""
        raise NotImplementedError

    # -- deciding ------------------------------------------------------------------

    def decide(self, attempt: BlockAttempt) -> DecisionOutcome:
        """Latency (and success) of consensus on one proposed block."""
        raise NotImplementedError

    # -- overload ---------------------------------------------------------------------

    def payload_factor(self, backlog: int, block_capacity: int) -> float:
        """Fraction of the nominal block payload achievable at *backlog*.

        Models the superlinear costs of large resident pools (tx-pool
        reorganisation, admission contention, gossip amplification). With
        gamma = 1 the service rate halves each time the backlog doubles
        past one block — the deterministic-BFT collapse; small gammas give
        the graceful degradation of the probabilistic chains (§6.3).
        """
        if self.overload_gamma == 0.0 or block_capacity <= 0:
            return 1.0
        # only the backlog *in excess* of one block is stress: a pool that
        # drains every block is healthy
        stress = max(0.0, backlog / block_capacity - 1.0)
        factor = float((1.0 + stress) ** (-self.overload_gamma))
        return max(self.payload_floor, factor)


class LeaderBFTPerf(ConsensusPerfModel):
    """Leader-based deterministic BFT: IBFT (Quorum) and HotStuff (Diem).

    Per block: the leader builds the block (cost grows with the resident
    pool), disseminates it, then ``phases`` quorum-forming round trips at
    the 2/3 RTT quantile. If a round exceeds the current timeout, a round
    change fires: the attempt fails, the timeout doubles and the next
    attempt pays the wasted round — the cascade that zeroes Quorum's
    throughput under constant 10 kTPS load (§6.3).
    """

    def __init__(self, profile: WanProfile, phases: int = 2,
                 base_overhead: float = 0.05,
                 pool_overhead_per_tx: float = 0.0,
                 admission_cpu_per_tx: float = 0.0,
                 verify_cpu_per_tx: float = 90e-6,
                 vote_verify_parallelism: int = 4,
                 round_timeout: float = 10.0,
                 max_timeout: float = 120.0,
                 overload_gamma: float = 1.0,
                 payload_floor: float = 0.0,
                 min_block_interval: float = 0.2,
                 pipeline_depth: float = 1.0,
                 relay_cap: int = 8,
                 per_node_overhead: float = 0.0) -> None:
        super().__init__(profile)
        self.phases = phases
        self.base_overhead = base_overhead
        self.pool_overhead_per_tx = pool_overhead_per_tx
        self.admission_cpu_per_tx = admission_cpu_per_tx
        self.verify_cpu_per_tx = verify_cpu_per_tx
        self.vote_verify_parallelism = vote_verify_parallelism
        self.base_round_timeout = round_timeout
        self.max_timeout = max_timeout
        self.overload_gamma = overload_gamma
        self.payload_floor = payload_floor
        self.min_block_interval = min_block_interval
        self.pipeline_depth = pipeline_depth
        self.relay_cap = relay_cap
        self.per_node_overhead = per_node_overhead
        self._current_timeout = round_timeout
        self._last_had_view_change = False

    def _byzantine_round_penalty(self) -> float:
        # a wasted adversarial leader round costs a full round timeout
        return self.base_round_timeout

    def next_block_delay(self, last_round_latency: float) -> float:
        # rounds serialize; chained HotStuff overlaps its phases, so the
        # proposal cadence is a fraction of the end-to-end round latency —
        # but a view change flushes the pipeline
        depth = 1.0 if self._last_had_view_change else self.pipeline_depth
        return max(self.min_block_interval, last_round_latency / depth)

    def round_components(self, attempt: BlockAttempt) -> Dict[str, float]:
        """Phase attribution of one round's latency (seconds per phase)."""
        # block building slows down with the resident pool (tx-pool
        # reorganisation) and with the incoming request stream (admission
        # processing competes with consensus on the same node)
        # leader-based BFT handles O(n) vote traffic per phase; at 200
        # validators this dominates the round (the scalability limitation
        # of leader-based consensus the paper cites [19])
        build = (self.base_overhead
                 + self.per_node_overhead * self.profile.n
                 + self.pool_overhead_per_tx * attempt.backlog
                 + self.admission_cpu_per_tx * attempt.arrival_rate)
        # leader-based chains unicast the proposal to every validator
        dissemination = self.profile.dissemination_time(
            attempt.payload_bytes, attempt.leader_region, flat=True,
            relay_cap=self.relay_cap)
        quorum_rtt = self.profile.rtt_quantile(0.66)
        verify = (attempt.tx_count * self.verify_cpu_per_tx
                  / self.vote_verify_parallelism)
        return {
            "propose": build + dissemination,
            "vote": self.phases * quorum_rtt + verify,
            "execute": attempt.exec_cpu_seconds,
        }

    def round_latency(self, attempt: BlockAttempt) -> float:
        return sum(self.round_components(attempt).values())

    def decide(self, attempt: BlockAttempt) -> DecisionOutcome:
        components = self.round_components(attempt)
        latency = sum(components.values())
        view_changes = 0
        total = 0.0
        self._last_had_view_change = False
        while latency > self._current_timeout:
            self._last_had_view_change = True
            # the round times out: everyone waits out the timer, the next
            # leader retries; after several doublings the timeout admits
            # the round (IBFT is live under partial synchrony), but the
            # wasted rounds dominate the run.
            total += self._current_timeout
            view_changes += 1
            self._current_timeout = min(self.max_timeout,
                                        self._current_timeout * 2)
            if view_changes >= 8:
                return DecisionOutcome(total, committed=False,
                                       view_changes=view_changes,
                                       breakdown={"view_change": total})
        total += latency
        self._current_timeout = self.base_round_timeout
        breakdown = dict(components)
        if total > latency:
            breakdown["view_change"] = total - latency
        return DecisionOutcome(total, committed=True,
                               view_changes=view_changes,
                               breakdown=breakdown)


class CommitteePerf(ConsensusPerfModel):
    """Algorand BA*: sortition, proposal gossip, two committee vote steps.

    The round duration is dominated by the fixed proposal-collection window
    plus two committee-vote gossip exchanges. Committees keep the message
    complexity flat in n, so the model scales to 200 nodes with only the
    RTT quantile growing.
    """

    def __init__(self, profile: WanProfile, proposal_window: float = 1.2,
                 vote_steps: int = 2, overload_gamma: float = 0.15,
                 min_round: float = 3.4) -> None:
        super().__init__(profile)
        self.proposal_window = proposal_window
        self.vote_steps = vote_steps
        self.overload_gamma = overload_gamma
        self.min_round = min_round

    def round_latency(self, attempt: BlockAttempt) -> float:
        dissemination = self.profile.dissemination_time(
            attempt.payload_bytes, attempt.leader_region)
        gossip_rtt = self.profile.rtt_quantile(0.9)
        return max(self.min_round,
                   self.proposal_window + dissemination
                   + self.vote_steps * gossip_rtt
                   + attempt.exec_cpu_seconds)

    def next_block_delay(self, last_round_latency: float) -> float:
        return last_round_latency

    def decide(self, attempt: BlockAttempt) -> DecisionOutcome:
        dissemination = self.profile.dissemination_time(
            attempt.payload_bytes, attempt.leader_region)
        gossip_rtt = self.profile.rtt_quantile(0.9)
        return DecisionOutcome(
            self.round_latency(attempt), committed=True,
            breakdown={
                "propose": self.proposal_window + dissemination,
                "vote": self.vote_steps * gossip_rtt,
                "execute": attempt.exec_cpu_seconds,
            })


class DAGPerf(ConsensusPerfModel):
    """Avalanche: repeated Snowball polling over the DAG, C-Chain blocks.

    Finality needs ``beta`` consecutive successful polls, each one gossip
    RTT. Block production is additionally throttled by the chain's minimum
    block period (>= 1.9 s observed on the C-Chain, §5.2); the negative
    overload exponent reflects that blocks pack closer to their gas limit
    when a backlog builds — the paper's ×1.38 throughput under 10x load.
    """

    def __init__(self, profile: WanProfile, beta: int = 12,
                 block_period: float = 1.9,
                 overload_gamma: float = -0.05,
                 packing_cap: float = 1.25) -> None:
        super().__init__(profile)
        self.beta = beta
        self.block_period = block_period
        self.overload_gamma = overload_gamma
        self.packing_cap = packing_cap

    def next_block_delay(self, last_round_latency: float) -> float:
        return self.block_period

    def payload_factor(self, backlog: int, block_capacity: int) -> float:
        factor = super().payload_factor(backlog, block_capacity)
        return min(self.packing_cap, factor)

    def decide(self, attempt: BlockAttempt) -> DecisionOutcome:
        dissemination = self.profile.dissemination_time(
            attempt.payload_bytes, attempt.leader_region)
        polls = self.beta * self.profile.rtt_quantile(0.5)
        return DecisionOutcome(
            dissemination + polls + attempt.exec_cpu_seconds, committed=True,
            breakdown={"propose": dissemination, "vote": polls,
                       "execute": attempt.exec_cpu_seconds})


class PoHPerf(ConsensusPerfModel):
    """Solana Tower BFT over Proof of History: fixed 400 ms slots.

    The verifiable delay function decouples block production from
    communication — a slot fires every 400 ms regardless of votes — so the
    decision latency is the slot time plus dissemination; *finality* (30
    confirmations) is applied by the runtime on top.
    """

    def __init__(self, profile: WanProfile, slot_duration: float = 0.4,
                 overload_gamma: float = 0.30) -> None:
        super().__init__(profile)
        self.slot_duration = slot_duration
        self.overload_gamma = overload_gamma

    def next_block_delay(self, last_round_latency: float) -> float:
        return self.slot_duration

    def decide(self, attempt: BlockAttempt) -> DecisionOutcome:
        dissemination = self.profile.dissemination_time(
            attempt.payload_bytes, attempt.leader_region)
        return DecisionOutcome(
            self.slot_duration / 2 + dissemination, committed=True,
            breakdown={"propose": dissemination,
                       "vote": self.slot_duration / 2})


class CliquePerf(ConsensusPerfModel):
    """Ethereum proof-of-authority: one sealer per period, heaviest chain.

    No votes at all: the block is final for the client only after the
    configured confirmation depth (applied by the runtime). The sealing
    cadence is the fixed block period (§5.2: "This version still requires a
    minimum period between consecutive blocks").
    """

    #: proof-of-authority has no quorum; liveness survives any minority of
    #: misbehaving sealers (safety does not — see the byzantine example)
    byzantine_tolerance: float = 0.5

    def __init__(self, profile: WanProfile, period: float = 5.0,
                 overload_gamma: float = 0.10) -> None:
        super().__init__(profile)
        self.period = period
        self.overload_gamma = overload_gamma

    def next_block_delay(self, last_round_latency: float) -> float:
        return self.period

    def decide(self, attempt: BlockAttempt) -> DecisionOutcome:
        dissemination = self.profile.dissemination_time(
            attempt.payload_bytes, attempt.leader_region)
        return DecisionOutcome(
            dissemination + attempt.exec_cpu_seconds, committed=True,
            breakdown={"propose": dissemination,
                       "execute": attempt.exec_cpu_seconds})
