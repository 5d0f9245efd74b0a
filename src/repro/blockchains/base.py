"""The simulated blockchain runtime: the chain core.

A :class:`BlockchainNetwork` assembles, for one chain in one deployment
configuration, everything the paper's evaluation exercises:

* validator machines in their regions (Table 3) with CPU accounting;
* a memory pool with the chain's admission/drop policy (§5.2 quirks:
  Diem's 100-transactions-per-signer quota, Solana's 120-second recent
  block hash window — modeled as pool expiry — Ethereum/Avalanche fee
  dynamics);
* the chain's virtual machine executing every transaction of every block;
* an analytic consensus performance model (:mod:`repro.consensus.models`)
  driving block cadence, decision latency and overload behaviour;
* a ledger applying the chain's confirmation depth (Solana: 30);
* the client-visible commit-detection path (§5.2).

A feature a run may lack is an attribute that is None without it: the
overload responses (:mod:`repro.blockchains.overload`), client retries
(:mod:`repro.blockchains.retry`), the fee market, faults, a byzantine
schedule and the lifecycle tracer.

Scaling: an :class:`ExperimentScale` of ``s`` shrinks offered rates and all
rate-like capacities (block payload caps, mempool bounds) by ``s`` while
inflating per-transaction CPU and wire size by ``1/s``, preserving every
dimensionless ratio (utilisation, stress, blocks-per-second). DESIGN.md
documents this as the laptop-scale substitution; ``REPRO_SCALE=1`` runs
full scale.
"""

from __future__ import annotations

import collections
import os
from weakref import WeakMethod
from dataclasses import dataclass, field, replace
from functools import partial
from operator import attrgetter
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.blockchains.overload import OverloadPolicy, OverloadResponse
from repro.chain.account import AccountFactoryLimits, AccountRegistry
from repro.chain.admission import AdmissionController
from repro.chain.block import Block
from repro.chain.ledger import Ledger
from repro.chain.mempool import Mempool, MempoolPolicy
from repro.chain.receipt import ExecStatus
from repro.chain.state import WorldState
from repro.common.errors import (
    BackpressureError,
    ConfigurationError,
    DeploymentError,
    MempoolFullError,
    NodeOverloadedError,
)
from repro.common.rng import RngFactory
from repro.consensus.models import BlockAttempt, WanProfile
from repro.crypto.signing import ECDSA
from repro.obs.metrics import MetricsRegistry, weak_supplier
from repro.sim.machine import Machine
from repro.vm.machines import VM_FACTORIES

if TYPE_CHECKING:  # a feature's module is imported where it is attached
    from repro.blockchains.retry import ClientRetries
    from repro.chain.receipt import Receipt
    from repro.chain.transaction import Transaction
    from repro.consensus.models import ConsensusPerfModel
    from repro.crypto.signing import SignatureScheme
    from repro.econ.fees import FeePolicy, FeeSpec
    from repro.econ.market import FeeMarket
    from repro.obs.metrics import Counter
    from repro.obs.trace import LifecycleTracer
    from repro.sim.deployment import DeploymentConfig
    from repro.sim.engine import Engine
    from repro.sim.faults import FaultInjector
    from repro.sim.network import Endpoint
    from repro.vm.base import VirtualMachine
    from repro.vm.program import Contract

_size = attrgetter("size")
_gas_used = attrgetter("gas_used")


def default_scale() -> float:
    """Experiment scale factor from the ``REPRO_SCALE`` environment."""
    return float(os.environ.get("REPRO_SCALE", "0.1"))


@dataclass(frozen=True)
class ExperimentScale:
    """Linear scale transform for laptop-sized runs (see module docstring)."""

    factor: float = 0.1

    def __post_init__(self) -> None:
        if not 0 < self.factor <= 1:
            raise ConfigurationError(
                f"scale factor must be in (0, 1], got {self.factor}")

    def rate(self, tps: float) -> float:
        """Scale an offered rate."""
        return tps * self.factor

    def capacity(self, value: Optional[int]) -> Optional[int]:
        """Scale a rate-like capacity (block caps, mempool bounds)."""
        if value is None:
            return None
        return max(1, int(round(value * self.factor)))

    def inflate_cpu(self, seconds: float) -> float:
        """Inflate per-transaction CPU so utilisation is preserved."""
        return seconds / self.factor

    def inflate_bytes(self, sizes: Iterable[int]) -> int:
        """Inflate per-transaction wire sizes so block bytes are preserved:
        each size is inflated and truncated on its own, then the results
        are summed. A block carries few distinct sizes, so each is
        truncated once and multiplied by how often it occurs, which is
        the same integer."""
        factor = self.factor
        return sum([int(size / factor) * count
                    for size, count in collections.Counter(sizes).items()])


@dataclass(frozen=True)
class ChainParams:
    """Everything configurable about one blockchain (Table 4 + §5.2)."""

    name: str
    consensus_name: str
    properties: str                      # "deterministic"/"probabilistic"/"eventual"
    vm_name: str                         # key into VM_FACTORIES
    dapp_language: str
    signature_scheme: SignatureScheme = ECDSA
    block_gas_limit: Optional[int] = None
    block_tx_limit: Optional[int] = None
    block_gas_per_vcpu: Optional[int] = None  # Solana: CPU-bound intake
    mempool_policy: MempoolPolicy = field(default_factory=MempoolPolicy)
    confirmation_depth: int = 0
    commit_api: str = "stream"           # "stream" | "poll" | "blocking"
    poll_interval: float = 1.0
    tx_expiry: Optional[float] = None    # Solana's 120 s blockhash window
    account_limits: AccountFactoryLimits = field(
        default_factory=AccountFactoryLimits)
    exec_parallelism: float = 1.0        # execution threads (geth: ~1)
    gossip_hop: float = 0.08             # client tx -> proposer gossip delay
    fee_policy: Optional[FeePolicy] = None  # fee dialect (inert until fees: on)
    overload: OverloadPolicy = field(default_factory=OverloadPolicy)
    perf_model: Callable[[WanProfile], ConsensusPerfModel] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.commit_api not in ("stream", "poll", "blocking"):
            raise ConfigurationError(f"bad commit_api {self.commit_api!r}")
        if self.perf_model is None:
            raise ConfigurationError(f"{self.name}: perf_model is required")


class BlockchainNetwork:
    """One chain deployed in one configuration, running on the engine."""

    def __init__(self, params: ChainParams, deployment: DeploymentConfig,
                 engine: Engine, scale: Optional[ExperimentScale] = None,
                 seed: int = 0) -> None:
        self.params = params
        self.engine = engine
        self.scale = scale or ExperimentScale(default_scale())
        self.rng = RngFactory(seed).child("chain", params.name)
        self.endpoints: List[Endpoint] = deployment.endpoints(
            prefix=f"{params.name}-node")
        margins = params.overload.memory_margins(self.rng,
                                                 len(self.endpoints))
        #: experiment-wide metrics registry: the pool, admission front door,
        #: validator machines and the chain's own counters all register here
        #: so one sampler pass sees the whole chain under dotted names
        self.metrics = MetricsRegistry()
        self.machines: List[Machine] = [
            Machine(ep, deployment.instance_type, memory_margin=margin,
                    metrics=self.metrics.namespace(f"machine.{ep.name}"))
            for ep, margin in zip(self.endpoints, margins)]
        self.model = params.perf_model(
            WanProfile([ep.region for ep in self.endpoints]))
        self.vm: VirtualMachine = VM_FACTORIES[params.vm_name]()
        self.state = WorldState()
        self.ledger = Ledger(confirmation_depth=params.confirmation_depth)
        policy = replace(
            params.mempool_policy,
            capacity=self.scale.capacity(params.mempool_policy.capacity),
            per_sender_quota=self.scale.capacity(
                params.mempool_policy.per_sender_quota))
        self.mempool = Mempool(policy,
                               metrics=self.metrics.namespace("mempool"))
        self.admission = AdmissionController(
            self.mempool, metrics=self.metrics.namespace("admission"))
        #: the §6 resource-exhaustion model; None when the chain has none
        self.overload: Optional[OverloadResponse] = None
        if params.overload.response != "none":
            self.overload = OverloadResponse(self, params.overload)
        self.admission_processed = 0   # arrivals through the full path
        self.pipeline_exits = 0        # transactions sealed into blocks
        self.last_arrival_at: Optional[float] = None
        self.accounts = AccountRegistry(params.signature_scheme,
                                        params.account_limits,
                                        namespace=f"{params.name}-acct")
        # block payload caps, unscaled (the per-block pop scales them)
        gas_cap = params.block_gas_limit
        if params.block_gas_per_vcpu is not None:
            # CPU-bound block intake (Solana): the per-slot payload scales
            # with the validator's core count — the reason the Solana team
            # calls c5.xlarge "insufficient" (Acknowledgments)
            cpu_cap = params.block_gas_per_vcpu * deployment.instance_type.vcpus
            gas_cap = cpu_cap if gas_cap is None else min(gas_cap, cpu_cap)
        self._gas_cap_unscaled = gas_cap
        self._gas_cap = self.scale.capacity(gas_cap)
        self._tx_cap_unscaled = params.block_tx_limit
        self._tx_cap = self.scale.capacity(params.block_tx_limit)
        # arrival-rate tracking for the admission-overhead term
        self._arrival_window = 5.0
        self._arrivals: List[Tuple[float, int]] = []
        self._leader_cursor = 0
        self._last_round_latency = 0.1
        self._producing = False
        #: while set, the chain keeps its block cadence through idle gaps
        #: instead of stopping and paying a restart delay per burst
        self.active_until: Optional[float] = None
        #: uid -> execution status of each transaction whose execution
        #: failed, from its block's execution until that block commits
        #: (the entry becomes its drop reason) or is requeued (re-execution
        #: decides again); a successful execution leaves no entry
        self._failed: Dict[int, str] = {}
        self.committed: List[Transaction] = []
        self.dropped: List[Transaction] = []
        #: drops of submissions nobody built (see :meth:`admission_room`):
        #: counted in every total, absent from :attr:`dropped`
        self.dropped_unbuilt = 0
        # chain-level counters live in the shared registry (legacy attribute
        # names remain available as read-only properties below)
        self._chain_metrics = chain_metrics = self.metrics.namespace("chain")
        # per-reason drop counters, registered on a reason's first drop
        self._drop_counters: Dict[str, Counter] = {}
        self._blocks_failed = chain_metrics.counter("blocks_failed")
        self._view_changes = chain_metrics.counter("view_changes")
        # a supplier reads a state object the network owns, or holds the
        # network weakly: closing over the network would tie the whole run
        # into a cycle through the registry the network owns
        chain_metrics.gauge("height",
                            supplier=partial(getattr, self.ledger, "height"))
        chain_metrics.gauge("committed_total", supplier=self.committed.__len__)
        chain_metrics.gauge("dropped_total", supplier=weak_supplier(
            self, attrgetter("dropped_total")))
        if self.overload is None:
            chain_metrics.gauge("memory_pressure").set(0.0)
        else:
            chain_metrics.gauge("memory_pressure", supplier=partial(
                getattr, self.overload, "memory_pressure"))
        self._committed_height = 0
        self._commit_listeners: List[
            Callable[[List[Transaction]], None]] = []
        self._drop_listeners: List[Callable[[Transaction], None]] = []
        self.injector: Optional[FaultInjector] = None
        #: byzantine adversary schedule (repro.sim.byzantine); None = benign
        self.byzantine_schedule: Optional[Any] = None
        # block attempts denied an honest quorum by the adversary
        self._byzantine_stalled_blocks = chain_metrics.counter(
            "byzantine_stalled_blocks")
        # production rounds skipped: no live quorum
        self._stalled_rounds = chain_metrics.counter("stalled_rounds")
        #: live fee market; None (the default) keeps every fee code path
        #: inert — attach one with :meth:`attach_fees`
        self.fee_market: Optional[FeeMarket] = None
        self._retries_scheduled = chain_metrics.counter("retries_scheduled")
        self._retries_succeeded = chain_metrics.counter("retries_succeeded")
        #: client retries; None (one shot per submission) unless
        #: :meth:`attach_fees` installs the fee-bumping ones
        self.retries: Optional[ClientRetries] = None
        #: lifecycle tracer; None = tracing fully off (the default), every
        #: hook site is guarded so the untraced path does no extra work
        self.tracer: Optional[LifecycleTracer] = None

    # -- registry views -------------------------------------------------------------

    @property
    def drop_reasons(self) -> Dict[str, int]:
        """Per-reason counts of client-visible drops."""
        return self._chain_metrics.counters_with_prefix("drops")

    @property
    def dropped_total(self) -> int:
        """Client-visible drops, built or not."""
        return len(self.dropped) + self.dropped_unbuilt

    @property
    def blocks_failed(self) -> int:
        return self._blocks_failed.value

    @property
    def stalled_rounds(self) -> int:
        return self._stalled_rounds.value

    @property
    def retries_scheduled(self) -> int:
        return self._retries_scheduled.value

    @property
    def retries_succeeded(self) -> int:
        return self._retries_succeeded.value

    # -- tracing --------------------------------------------------------------------

    def attach_tracer(self, tracer: LifecycleTracer) -> None:
        """Attach a lifecycle tracer to this chain's pipeline."""
        self.tracer = tracer

    # -- fault injection ----------------------------------------------------------

    def attach_faults(self, injector: FaultInjector) -> None:
        """Drive this chain's nodes with *injector*'s fault schedule."""
        self.injector = injector
        injector.register(self.engine)

    def attach_byzantine(self, schedule: Any) -> None:
        """Degrade this chain's analytic model per a Byzantine schedule.

        Each sealed block samples the schedule's active adversarial
        fraction and applies the model's quorum-formation penalties
        (``ConsensusPerfModel.apply_byzantine``); fractions at or beyond
        the model's tolerance fail the attempt, so the block returns to
        the pool until the adversary stops. An empty (or ``None``)
        schedule detaches — the benign path is untouched.
        """
        if schedule is None or len(schedule) == 0:
            self.byzantine_schedule = None
            return
        self.byzantine_schedule = schedule
        if self.tracer is not None:
            from repro.sim.byzantine import byzantine_event_kind
            for index, event in enumerate(schedule):
                self.tracer.adversary_window(
                    index, byzantine_event_kind(event),
                    event.start, event.stop, event.node)

    # -- fee market ---------------------------------------------------------------

    def _fee_gas_target(self, policy: FeePolicy) -> int:
        """Per-block gas target (scaled units) for the base-fee controller."""
        if self._gas_cap is not None:
            cap = self._gas_cap
        elif self._tx_cap is not None:
            cap = self._tx_cap * 21_000
        else:
            cap = self.scale.capacity(self.reference_block_txs() * 21_000)
        return max(1, cap // policy.elasticity)

    def attach_fees(self, spec: FeeSpec) -> None:
        """Activate this chain's fee market per the workload's ``fees:`` spec.

        Builds the chain's declared :class:`FeePolicy` (EIP-1559 default)
        with the spec's overrides, makes mempool admission price-aware,
        and gives clients fee-bumping retries.
        Never called for workloads without a ``fees:`` section, so benign
        runs stay byte-identical.
        """
        from repro.blockchains.retry import ClientRetries
        from repro.econ.fees import build_fee_model
        from repro.econ.market import FeeMarket

        policy = spec.applied_to(self.params.fee_policy)
        model = build_fee_model(policy, self._fee_gas_target(policy))
        self.fee_market = FeeMarket(model, self.metrics.namespace("fees"))
        self.mempool.pricer = model
        # the pool holds the network weakly, as the network owns the pool
        on_fee_evicted = WeakMethod(self._on_fee_evicted)
        self.mempool.on_evict = lambda tx: on_fee_evicted()(tx)
        self.retries = ClientRetries(self, spec)

    def _on_fee_evicted(self, tx: Transaction) -> None:
        """An underpriced resident was priced out of the pool: its owner
        re-bids like after any other rejection, and with its attempts
        exhausted the eviction becomes a client-visible drop."""
        if not self.retries.after_eviction(self, tx):
            self._record_drop(tx, "fee_evicted")

    def _quorum_available(self) -> bool:
        """Whether n - f live, connected validators can commit."""
        if self.injector is None:
            return True
        n = len(self.endpoints)
        largest = self.injector.largest_side_available(
            list(range(n)), [ep.region for ep in self.endpoints])
        return largest >= n - (n - 1) // 3

    # -- setup ---------------------------------------------------------------------

    def create_accounts(self, count: int) -> None:
        """Provision funded benchmark accounts (§4: the !account sample).

        Chains with provisioning limits (Diem) cap the population instead of
        failing the whole benchmark, mirroring the authors' workaround.
        """
        self.accounts.create_up_to(count)
        if len(self.accounts) == 0:
            raise DeploymentError(f"{self.params.name}: no accounts created")
        for account in self.accounts:
            self.state.credit(account.address, account.balance)

    def deploy_contract(self, contract: Contract) -> None:
        """Deploy a DApp before the benchmark starts (done by the Primary)."""
        self.vm.deploy(self.state, contract)

    # -- reference block capacity (for overload stress computation) ----------------------

    def reference_block_txs(self) -> int:
        """Nominal transactions per block, in unscaled units."""
        estimates = []
        if self._tx_cap_unscaled is not None:
            estimates.append(self._tx_cap_unscaled)
        if self._gas_cap_unscaled is not None:
            estimates.append(max(1, self._gas_cap_unscaled // 21_000))
        return min(estimates) if estimates else 10_000

    def arrival_rate(self) -> float:
        """Recent client submission rate in unscaled TPS."""
        now = self.engine.now
        horizon = now - self._arrival_window
        while self._arrivals and self._arrivals[0][0] < horizon:
            self._arrivals.pop(0)
        if not self._arrivals:
            return 0.0
        window = max(1.0, now - self._arrivals[0][0])
        total = sum(count for _, count in self._arrivals)
        return total / window / self.scale.factor

    # -- submission ------------------------------------------------------------------------

    def admission_room(self, count: int) -> Optional[int]:
        """How many of *count* fresh submissions :meth:`submit_batch`
        would accept at this instant, whatever they carry: always the
        first that many. A caller that wants no more of a rejected
        transaction than its count can then build only that prefix and
        pass the rest as ``turned_away``.

        None means unknown, and the caller builds everything: either a
        tracer or a drop listener would look at a rejected transaction, or
        the pool's answer depends on the transactions (see
        :meth:`AdmissionController.room`; the fee market that client
        retries come with installs a pricer).
        """
        if self.tracer is not None or self._drop_listeners:
            return None
        return self.admission.room(count)

    def submit_batch(self, txs: Sequence[Transaction],
                     turned_away: int = 0) -> int:
        """Clients hand *txs* to their collocated nodes at the current
        instant; return how many were accepted.

        *turned_away* more submissions follow *txs* in the same batch
        without having been built, because :meth:`admission_room` said the
        node rejects them: they are counted exactly where the loop below
        would have counted them, and no more.

        Each transaction reaches the proposer's pool one gossip hop later;
        admission control applies the chain's mempool policy behind the
        backpressure front door (load shedding). With :attr:`retries` in
        force, a rejected submission schedules a backed-off client retry
        instead of dropping immediately; the transaction only counts as
        dropped once its attempts are exhausted.

        The batch is recorded as one arrival and its counter increments
        are accumulated across the loop. That is safe because
        :meth:`arrival_rate` only sums counts per timestamp, and the
        counters are only read from block-production events. An attached
        tracer sees every transaction of the batch, in submission order.
        """
        count = len(txs) + turned_away
        if count == 0:
            return 0
        now = self.engine.now
        admission_submit = self.admission.submit
        retries = self.retries
        record_drop = self._record_drop
        tracer = self.tracer
        self._arrivals.append((now, count))
        self.last_arrival_at = now
        accepted = 0
        processed = 0
        retried_ok = 0
        for tx in txs:
            if tx.submitted_at is None:
                attempt = 1
                tx.submitted_at = now
            else:
                tx.retries += 1
                attempt = tx.retries + 1
                tx.resubmitted_at = now
            if tracer is not None:
                tracer.tx_submit(tx, now, attempt)
            try:
                admission_submit(tx)
            except NodeOverloadedError:
                # shed at the door: the node rejected cheaply, before
                # paying the admission path, so no churn is charged
                # against its memory
                reason = "shed_load"
            except (MempoolFullError, BackpressureError) as exc:
                processed += 1
                reason = type(exc).__name__
            else:
                processed += 1
                if attempt > 1:
                    retried_ok += 1
                if tracer is not None:
                    tracer.tx_admitted(tx, now)
                if not accepted:
                    # nothing in the loop stops production again, so the
                    # first acceptance is the only call that can start it
                    self._ensure_production()
                accepted += 1
                continue
            will_retry = (retries is not None
                          and retries.schedule(self, tx, attempt))
            if tracer is not None:
                tracer.tx_rejected(tx, now, reason, will_retry)
            if not will_retry:
                record_drop(tx, reason)
        if turned_away:
            if self.admission.turn_away(turned_away):
                reason = "shed_load"
            else:
                processed += turned_away
                reason = MempoolFullError.__name__
            self.dropped_unbuilt += turned_away
            self._drop_counter(reason).inc(turned_away)
        self.admission_processed += processed
        if retried_ok:
            self._retries_succeeded.inc(retried_ok)
        return accepted

    def _record_drop(self, tx: Transaction, reason: str) -> None:
        """Single point where a transaction becomes a client-visible drop.

        Tags the reason (mempool admission vs pool expiry vs execution
        failure) so availability analysis can tell them apart, and keeps
        per-reason counters for :meth:`stats`.
        """
        tx.aborted = True
        tx.abort_reason = reason
        self.dropped.append(tx)
        self._drop_counter(reason).inc()
        if self.tracer is not None:
            self.tracer.tx_dropped(tx, self.engine.now, reason)
        for listener in self._drop_listeners:
            listener(tx)

    def _drop_counter(self, reason: str) -> Counter:
        counter = self._drop_counters.get(reason)
        if counter is None:
            counter = self._drop_counters[reason] = (
                self._chain_metrics.counter(f"drops.{reason}"))
        return counter

    def on_commit(self, listener: Callable[[List[Transaction]], None]
                  ) -> None:
        """Observe commits: *listener* is called once per final block that
        commits any transaction, with those transactions in block order
        (see :meth:`_commit_block`)."""
        self._commit_listeners.append(listener)

    def off_commit(self, listener: Callable[[List[Transaction]], None]
                   ) -> None:
        """Stop calling *listener*, which :meth:`on_commit` added."""
        self._commit_listeners.remove(listener)

    def on_drop(self, listener: Callable[[Transaction], None]) -> None:
        """Observe every client-visible drop (see :meth:`_record_drop`)."""
        self._drop_listeners.append(listener)

    def off_drop(self, listener: Callable[[Transaction], None]) -> None:
        """Stop calling *listener*, which :meth:`on_drop` added."""
        self._drop_listeners.remove(listener)

    # -- block production --------------------------------------------------------------------

    def _ensure_production(self) -> None:
        """Begin block production unless it runs: an idle chain produces
        only once a transaction arrives, since empty blocks carry no
        information for the benchmark and would triple the event count."""
        if self._producing:
            return
        self._producing = True
        self._next_round("block", self.params.gossip_hop)

    def _next_round(self, label: str, extra: float = 0.0) -> None:
        """Schedule the next production round one block delay (plus
        *extra*) from now."""
        self.engine.schedule_after(
            self.model.next_block_delay(self._last_round_latency) + extra,
            self._produce_block, label=f"{self.params.name}-{label}")

    def _produce_block(self) -> None:
        now = self.engine.now
        self._expire_pool(now)
        overload = self.overload
        if overload is not None:
            overload.update(self, now)
        if not self._quorum_available():
            # the fault schedule took out too many validators (or split
            # them): no side of the network can assemble a commit quorum,
            # so the chain stalls — the §6.3/§6.5 availability dip.
            # Transactions keep queueing (or expiring) in the mempool.
            self._stalled_rounds.inc()
            self._next_round("stalled")
            return
        if overload is not None and overload.stalled:
            # commit stall: consensus is thrashing under memory pressure
            # and stops making progress (Diem under constant 10 kTPS, §6.3)
            self._stalled_rounds.inc()
            self._next_round("memstall")
            return
        backlog = len(self.mempool)
        if backlog == 0:
            needs_confirmations = (
                self.params.confirmation_depth > 0
                and self.ledger.height > self._committed_height)
            if needs_confirmations:
                # chains with a confirmation depth keep sealing empty blocks
                # (Solana's PoH clock ticks regardless of load) — without
                # them, the last transactions would never reach finality
                self._seal_block([], backlog_unscaled=0)
                return
            if self.active_until is not None and now < self.active_until:
                self._next_round("idle")
            else:
                self._producing = False
            return
        backlog_unscaled = int(backlog / self.scale.factor)
        factor = self.model.payload_factor(backlog_unscaled,
                                           self.reference_block_txs())
        gas_cap = (None if self._gas_cap is None
                   else max(21_000, int(self._gas_cap * factor)))
        tx_cap = (None if self._tx_cap is None
                  else max(1, int(self._tx_cap * factor)))
        batch = self.mempool.pop_batch(max_count=tx_cap, max_gas=gas_cap)
        if not batch:
            self._next_round("retry")
            return
        self._seal_block(batch, backlog_unscaled)

    def _next_leader(self) -> Tuple[int, int]:
        """(leader index, crashed leaders skipped) for the next block.

        Round-robin rotation, skipping validators the fault schedule has
        taken down; every skip costs a view change (the protocol had to
        time out on the dead proposer before rotating past it).
        """
        injector = self.injector
        n = len(self.endpoints)
        skipped = 0
        for _ in range(n):
            index = self._leader_cursor % n
            self._leader_cursor += 1
            if injector is None or injector.node_available(
                    index, self.endpoints[index].region):
                return index, skipped
            skipped += 1
        # _quorum_available gates production, so a live node exists; keep
        # the last index as a fallback for direct (unguarded) callers
        return index, skipped

    def _seal_block(self, batch: Sequence[Transaction],
                    backlog_unscaled: int) -> None:
        leader_index, skipped = self._next_leader()
        leader = self.endpoints[leader_index]
        # execute the block on the leader's machine
        receipts, exec_cpu = self._execute_batch(batch)
        exec_time = (self.scale.inflate_cpu(exec_cpu)
                     / max(1.0, self.params.exec_parallelism))
        self.machines[leader_index].execute(self.scale.inflate_cpu(exec_cpu))
        payload_bytes = self.scale.inflate_bytes(map(_size, batch))
        attempt = BlockAttempt(
            tx_count=len(batch),
            payload_bytes=payload_bytes,
            exec_cpu_seconds=exec_time,
            backlog=backlog_unscaled,
            leader_region=leader.region,
            arrival_rate=self.arrival_rate())
        outcome = self.model.decide(attempt)
        if self.byzantine_schedule is not None:
            was_committed = outcome.committed
            outcome = self.model.apply_byzantine(
                outcome, self.byzantine_schedule.active_fraction(
                    self.engine.now, len(self.endpoints)))
            if was_committed and not outcome.committed:
                self._byzantine_stalled_blocks.inc()
                if self.tracer is not None:
                    self.tracer.adversary_action(
                        self.engine.now, "quorum_denied",
                        height=self.ledger.height + 1)
        self._view_changes.inc(outcome.view_changes + skipped)
        latency = outcome.latency + skipped * max(self._last_round_latency, 0.5)
        self._last_round_latency = max(latency, 1e-3)
        bid = -1
        if self.tracer is not None:
            bid = self.tracer.block_sealed(
                self.engine.now, self.ledger.height + 1, leader.name,
                batch, exec_time, outcome)
        if outcome.committed:
            self.engine.schedule_after(
                latency,
                lambda: self._append_block(batch, receipts, leader.name, bid),
                label=f"{self.params.name}-append")
        else:
            # the round-change cascade gave up: the transactions return to
            # the pool and the next attempt starts after the wasted rounds
            self._blocks_failed.inc()
            if self.tracer is not None and bid >= 0:
                self.tracer.block_requeued(bid, self.engine.now)
            failed = self._failed
            for tx in batch:
                # re-execution decides the transaction's fate again
                failed.pop(tx.uid, None)
                self.mempool.try_add(tx)
        self._next_round("block")

    def _execute_batch(self, batch: Sequence[Transaction]
                       ) -> Tuple[List[Receipt], float]:
        """Execute *batch* in order: its receipts (read by
        :meth:`_append_block`, then let go) and the CPU seconds it cost.
        Only a failed execution leaves a trace beyond the block: its
        status, in :attr:`_failed`."""
        height = self.ledger.height + 1
        receipts: List[Receipt] = []
        keep = receipts.append
        cpu = 0.0
        verify = self.params.signature_scheme.verify_cost
        execute = self.vm.execute
        state = self.state
        gas_per_cpu_second = self.vm.gas_per_cpu_second
        failed = self._failed
        success = ExecStatus.SUCCESS
        for tx in batch:
            receipt = execute(state, tx, block_height=height)
            keep(receipt)
            if receipt.status is not success:
                failed[tx.uid] = receipt.status.value
            cpu += receipt.gas_used / gas_per_cpu_second + verify
        return receipts, cpu

    def _append_block(self, batch: Sequence[Transaction],
                      receipts: Sequence[Receipt], proposer: str,
                      bid: int = -1) -> None:
        now = self.engine.now
        block = Block(
            height=self.ledger.height + 1,
            parent=self.ledger.head,
            proposer=proposer,
            transactions=list(batch),
            timestamp=now,
            gas_used=sum(map(_gas_used, receipts)))
        self.ledger.append(block, decided_at=now)
        if self.fee_market is not None:
            self.fee_market.settle_block(batch, receipts, block.gas_used)
        if self.tracer is not None and bid >= 0:
            self.tracer.block_appended(bid, now)
        self._finalize_ready()

    def _finalize_ready(self) -> None:
        """Commit every block that has reached the confirmation depth."""
        depth = self.params.confirmation_depth
        final_height = self.ledger.height - depth
        for height in range(self._committed_height + 1, final_height + 1):
            final_time = self.ledger.final_at(height)
            if final_time is None:
                continue
            self._commit_block(self.ledger.block_at(height), final_time)
        self._committed_height = max(self._committed_height, final_height)

    def _commit_block(self, block: Block, final_time: float) -> None:
        """Commit a final block's transactions, in block order, then hand
        the committed ones to each commit listener in one call."""
        txs = block.transactions
        # sealed into a finalized block — success or execution failure,
        # every transaction has left the consensus pipeline and paid off
        # its debt
        self.pipeline_exits += len(txs)
        committed_at = final_time + self._observation_delay()
        failed = self._failed
        tracer = self.tracer
        committed: List[Transaction] = []
        commit = committed.append
        for tx in txs:
            if failed:
                status = failed.pop(tx.uid, None)
                if status is not None:
                    # the transaction is in a block but its execution
                    # failed — the client sees an error ("budget
                    # exceeded", revert, out-of-gas), not a commit
                    # (§6.4 / experiment E2)
                    self._record_drop(tx, status)
                    continue
            tx.committed_at = committed_at
            if tracer is not None:
                tracer.tx_committed(tx, final_time, committed_at)
            commit(tx)
        if committed:
            self.committed.extend(committed)
            for listener in self._commit_listeners:
                listener(committed)

    def _observation_delay(self) -> float:
        """Client-side commit detection delay (§5.2 per-chain APIs)."""
        api = self.params.commit_api
        if api == "stream":
            return 0.01   # web-socket push from the collocated node
        if api == "poll":
            return self.params.poll_interval / 2
        # blocking API: one round trip per transaction plus server queueing
        return self.params.poll_interval

    def _expire_pool(self, now: float) -> None:
        if self.params.tx_expiry is None:
            return
        retries = self.retries
        for tx in self.mempool.drop_expired(now, self.params.tx_expiry):
            if retries is None or not retries.after_eviction(self, tx):
                self._record_drop(tx, "expired")

    # -- results ----------------------------------------------------------------------------------

    def stats(self) -> Dict[str, float]:
        stats: Dict[str, float] = {
            "height": self.ledger.height,
            "committed": len(self.committed),
            "dropped": self.dropped_total,
            "pending": len(self.mempool),
            "blocks_failed": self.blocks_failed,
            "view_changes": self._view_changes.value,
        }
        for reason, count in sorted(self.drop_reasons.items()):
            stats[f"dropped_{reason}"] = count
        for key, value in self.mempool.stats().items():
            stats[f"mempool_{key}"] = value
        for key, value in self.admission.stats().items():
            stats[f"admission_{key}"] = value
        if self.overload is not None:
            stats.update(self.overload.stats())
        if self.fee_market is not None:     # and its client retries
            stats["retries_scheduled"] = self.retries_scheduled
            stats["retries_succeeded"] = self.retries_succeeded
            for key, value in self.fee_market.stats().items():
                stats[f"fees_{key}"] = value
        if self.injector is not None:
            stats["stalled_rounds"] = self.stalled_rounds
            stats["fault_events_applied"] = len(self.injector.events_applied)
        if self.byzantine_schedule is not None:
            stats["byzantine_stalled_blocks"] = (
                self._byzantine_stalled_blocks.value)
            stats["byzantine_events"] = len(self.byzantine_schedule)
        return stats
