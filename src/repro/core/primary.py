"""The DIABLO Primary: experiment coordinator (§4).

"The purpose of the Primary machine is to coordinate the experiment: it
generates the workload and dispatches it between Secondaries, launches the
benchmark, aggregates the results and reports them back." Before the run it
provisions the accounts and deploys the smart contracts the configuration
names; afterwards it collects every Secondary's per-transaction timestamps
into a :class:`BenchmarkResult` (the JSON output of the real tool).
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Union

from repro.blockchains.base import (
    BlockchainNetwork,
    ExperimentScale,
    default_scale,
)
from repro.blockchains.registry import build_network
from repro.common.errors import ConfigurationError, SpecError
from repro.core.interface import SimConnector
from repro.core.population import AggregateArrivals, population_block
from repro.core.results import BenchmarkResult, TransactionRecord
from repro.core.secondary import Secondary
from repro.core.spec import ContractSample
from repro.core.watchdog import DEFAULT_WINDOW, LivenessWatchdog
from repro.sim.deployment import get_configuration
from repro.sim.engine import Engine, collector_paused

if TYPE_CHECKING:  # a feature's module is imported where it is attached
    from repro.blockchains.base import ChainParams
    from repro.core.interface import Client
    from repro.core.spec import EndpointSample, WorkloadSpec
    from repro.obs.metrics import MetricsSampler, ObservabilityOptions
    from repro.obs.profiler import EngineProfiler
    from repro.obs.trace import LifecycleTracer
    from repro.sim.deployment import DeploymentConfig
    from repro.sim.dos import DoSAdversary
    from repro.sim.network import Endpoint

DEFAULT_DRAIN = 240.0
#: granularity of the drain loop — how often the Primary re-checks the
#: watchdog before deciding whether simulating further is worthwhile
DRAIN_CHUNK = 20.0


class Primary:
    """Coordinates one benchmark run against one chain in one deployment."""

    def __init__(self, chain: str,
                 deployment: Union[str, DeploymentConfig],
                 scale: Optional[float] = None,
                 seed: int = 0,
                 secondaries_per_region: int = 1,
                 params: Optional[ChainParams] = None,
                 observe: Optional[ObservabilityOptions] = None) -> None:
        """Coordinate benchmarks for *chain* in *deployment*.

        Pass ``params`` to benchmark a chain that is not in the registry —
        a custom :class:`~repro.blockchains.base.ChainParams` is all a new
        blockchain needs (the §4 extensibility path; see
        examples/custom_blockchain.py).

        Pass ``observe`` to turn on observability: a lifecycle tracer on
        the chain's transaction pipeline, a periodic metrics sampler
        (landing in ``BenchmarkResult.timeseries``) and optionally the
        engine profiler. The default (None) is the zero-overhead path —
        no tracer hooks fire and the result is identical to a run without
        any observability code.
        """
        self.chain_name = chain
        self.deployment = (get_configuration(deployment)
                           if isinstance(deployment, str) else deployment)
        self.scale = ExperimentScale(
            default_scale() if scale is None else scale)
        self.seed = seed
        self.secondaries_per_region = secondaries_per_region
        self.engine = Engine()
        if params is not None:
            self.network = BlockchainNetwork(
                params, self.deployment, self.engine,
                scale=self.scale, seed=seed)
        else:
            self.network = build_network(
                chain, self.deployment, self.engine,
                scale=self.scale, seed=seed)
        self.connector = SimConnector(self.network)
        self.secondaries: List[Secondary] = []
        self.adversary: Optional[DoSAdversary] = None
        self.observe = observe
        self.tracer: Optional[LifecycleTracer] = None
        self.profiler: Optional[EngineProfiler] = None
        self._sampler: Optional[MetricsSampler] = None
        if observe is not None:
            if observe.trace:
                from repro.obs.trace import LifecycleTracer
                self.tracer = LifecycleTracer(chain=chain)
                self.network.attach_tracer(self.tracer)
            if observe.profile:
                from repro.obs.profiler import EngineProfiler
                self.profiler = EngineProfiler()
                self.engine.profiler = self.profiler

    # -- setup helpers ---------------------------------------------------------------

    def _provision(self, spec: WorkloadSpec) -> None:
        population = spec.account_population()
        if population > 0:
            self.network.create_accounts(population)
        for dapp_name in spec.contracts_used():
            self.connector.create_resource(ContractSample(dapp_name))

    def _build_secondaries(self, spec: WorkloadSpec) -> None:
        """One Secondary per deployment region (collocated with nodes).

        "each Secondary submits its requests to its collocated blockchain
        node so as to mimic requests being routed from a client towards its
        closest blockchain node" (§5.3).
        """
        regions = sorted({ep.region for ep in self.network.endpoints})
        self.secondaries = []
        for region in regions:
            for i in range(self.secondaries_per_region):
                self.secondaries.append(Secondary(
                    name=f"secondary-{region}-{i}",
                    region=region,
                    engine=self.engine,
                    connector=self.connector,
                    scale=self.scale))

    def _dispatch(self, spec: WorkloadSpec) -> None:
        """Assign each workload group's clients to matching Secondaries.

        Population specs dispatch their synthesized cohort group here
        (``spec.client_groups()``) so the tracked sample gets ordinary
        ``client-{N}`` clients on the classic path; the aggregate lane is
        attached separately by :meth:`_attach_population`.
        """
        endpoints = self.network.endpoints
        client_counter = 0
        for group in spec.client_groups():
            matching = [s for s in self.secondaries
                        if group.client.location.matches(s.region)]
            if not matching:
                raise ConfigurationError(
                    f"no Secondary matches location sample"
                    f" {group.client.location.patterns}")
            # a client's view depends only on its Secondary's region, so
            # each Secondary's is resolved once, on its first client
            views: Dict[int, List[str]] = {}
            # split the group's clients round-robin over the Secondaries
            per_secondary: Dict[int, List[Client]] = {
                i: [] for i in range(len(matching))}
            for n in range(group.number):
                sec_index = n % len(matching)
                secondary = matching[sec_index]
                view = views.get(sec_index)
                if view is None:
                    view = views[sec_index] = self._view(
                        group.client.view, secondary.region, endpoints)
                client = self.connector.create_client(
                    f"client-{client_counter}", secondary.region, view)
                client_counter += 1
                per_secondary[sec_index].append(client)
            for index, clients in per_secondary.items():
                for behavior in group.client.behaviors:
                    matching[index].assign(clients, behavior)

    @staticmethod
    def _view(sample: EndpointSample, region: str,
              endpoints: Sequence[Endpoint]) -> List[str]:
        """The endpoints *sample* names in *region*, or anywhere when it
        names none there; a sample naming no endpoint is an error."""
        named = [ep for ep in endpoints if sample.matches(ep.name)]
        if not named:
            raise ConfigurationError(
                f"no endpoint matches view sample {sample.patterns}")
        return ([ep.name for ep in named if ep.region == region]
                or [ep.name for ep in named])

    def _attach_population(self, spec: WorkloadSpec) -> None:
        """Attach the population's aggregate lane, if any.

        The untracked users become one :class:`AggregateArrivals` process
        hosted by the first location-matching Secondary (deterministic:
        regions sort identically every run). A population whose cohort
        covers every user attaches nothing — the run then exercises only
        the classic client path and stays byte-identical to an explicit
        spec with the same clients.
        """
        population = spec.population
        if population is None or population.aggregate_users <= 0:
            return
        matching = [s for s in self.secondaries
                    if re.fullmatch(population.location, s.region)]
        if not matching:
            raise ConfigurationError(
                f"no Secondary matches population location"
                f" {population.location!r}")
        host = matching[0]
        process = AggregateArrivals(
            population, self.scale.rate, host.tick,
            self.network.rng.child("population"))
        host.assign_aggregate(process, population.interaction)

    def _attach_schedules(self, spec: WorkloadSpec) -> None:
        """Attach the spec's fault and byzantine schedules, failing fast
        on an event that names an unknown target or that a chain run
        cannot apply.

        Node keys the deployment answers for: endpoint indices, endpoint
        names and region tags (the injector is key-agnostic, so a spec
        may use any of them). A ``link_degrade`` acts on messages, and the
        chain model sends none: only the message-level lane
        (``ConsensusHarness.route``) reads link state. Raises
        ``SpecError`` before anything runs.
        """
        endpoints = self.network.endpoints
        if spec.faults:
            from repro.sim.faults import (
                FaultInjector,
                LinkDegrade,
                event_summary,
            )
            nodes = (set(range(len(endpoints)))
                     | {ep.name for ep in endpoints})
            regions = set(self.deployment.regions)
            schedule = spec.fault_schedule()
            schedule.validate(nodes | regions, regions)
            for event in schedule.events:
                if isinstance(event, LinkDegrade):
                    raise SpecError(
                        "faults: link_degrade acts on message-level"
                        " consensus runs only, a chain run has no links:"
                        f" {event_summary(event)}")
            self.network.attach_faults(FaultInjector(schedule))
        if spec.byzantine:
            byzantine = spec.byzantine_schedule()
            byzantine.validate(len(endpoints))
            self.network.attach_byzantine(byzantine)

    # -- the run ------------------------------------------------------------------------

    @collector_paused()
    def run(self, spec: WorkloadSpec, workload_name: str = "workload",
            drain: float = DEFAULT_DRAIN,
            max_sim_seconds: Optional[float] = None,
            watchdog_window: float = DEFAULT_WINDOW) -> BenchmarkResult:
        """Provision, dispatch, execute, aggregate.

        A :class:`~repro.core.watchdog.LivenessWatchdog` guards the run: a
        chain with pending demand that commits nothing for
        *watchdog_window* simulated seconds is declared stalled, and the
        Primary stops simulating (no point draining a dead chain) and marks
        the result ``failed``. ``max_sim_seconds`` (or the spec's
        ``deadline``) additionally caps total simulated time — the guard
        against runaway experiments.

        The cyclic collector is paused for the whole run, records
        included (:func:`~repro.sim.engine.collector_paused`).
        """
        from repro.chain.transaction import reset_tx_counter
        reset_tx_counter()
        duration = spec.duration
        deadlines = [d for d in (spec.deadline, max_sim_seconds)
                     if d is not None]
        deadline = min(deadlines) if deadlines else None
        self._provision(spec)
        self._build_secondaries(spec)
        self._dispatch(spec)
        self._attach_population(spec)
        self._attach_schedules(spec)
        fees = spec.fees
        if fees is None and spec.adversary is not None:
            # an adversary needs a fee market to bid into; a bare
            # `adversary:` section gets the chain's default dialect
            from repro.econ.fees import FeeSpec
            fees = FeeSpec()
        if fees is not None:
            self.network.attach_fees(fees)
        if spec.adversary is not None:
            from repro.sim.dos import DoSAdversary
            self.adversary = DoSAdversary(
                self.network, spec.adversary, duration)
            self.adversary.start()
        self.network.active_until = duration
        watchdog = LivenessWatchdog(self.engine, self.network,
                                    window=watchdog_window)
        if self.observe is not None and self.observe.sample_period > 0:
            from repro.obs.metrics import MetricsSampler
            self._sampler = MetricsSampler(self.engine, self.network.metrics,
                                           period=self.observe.sample_period)
        for secondary in self.secondaries:
            secondary.start()
        target = duration + drain
        if deadline is not None:
            target = min(target, deadline)
        committed_before = len(self.network.committed)
        stalled_last_chunk = False
        while self.engine.now < target:
            self.engine.run(until=min(self.engine.now + DRAIN_CHUNK, target))
            committed_now = len(self.network.committed)
            stalled = watchdog.stalled and committed_now == committed_before
            if stalled and stalled_last_chunk:
                # dead for two consecutive chunks: abort the run instead of
                # simulating the rest of a flat line (a fault healing at a
                # chunk boundary still gets the next chunk to recover in)
                break
            stalled_last_chunk = stalled
            committed_before = committed_now
        watchdog.stop()
        if self._sampler is not None:
            self._sampler.stop()
        if self.adversary is not None:
            self.adversary.stop()
        # a finished run is never resumed: what is still pending (the next
        # block, a retry, a tick) would only keep the run in a cycle
        self.engine.clear()
        deadline_hit = (deadline is not None and deadline < duration + drain
                        and self.engine.now >= deadline)
        if deadline_hit:
            watchdog.events.append({
                "at": round(self.engine.now, 3),
                "kind": "deadline_hit",
                "deadline": deadline})
        status = watchdog.finalize()
        overload = self.network.overload
        if deadline_hit:
            status = "failed"
        elif status == "ok" and overload is not None and overload.events:
            # the chain survived, but only by shedding/crashing its way
            # through overload — not a clean run
            status = "degraded"
        return self._aggregate(spec, workload_name, duration,
                               status=status,
                               liveness_events=watchdog.events)

    def _aggregate(self, spec: WorkloadSpec, workload_name: str,
                   duration: float, status: str = "ok",
                   liveness_events: Optional[List[Dict]] = None
                   ) -> BenchmarkResult:
        # byzantine windows merge into the fault-event record, so the
        # degradation metrics (fault_window, commit ratios, recovery
        # time) cover adversarial runs without a second code path
        fault_events = []
        if spec.faults:
            fault_events += spec.fault_schedule().summaries()
        if spec.byzantine:
            fault_events += spec.byzantine_schedule().summaries()
        fault_events.sort(key=lambda e: e["at"])
        overload = self.network.overload
        result = BenchmarkResult(
            chain=self.chain_name,
            configuration=self.deployment.name,
            workload_name=workload_name,
            duration=duration,
            scale=self.scale.factor,
            chain_stats=self.network.stats(),
            fault_events=fault_events,
            status=status,
            liveness_events=list(liveness_events or []),
            overload_events=[] if overload is None else list(overload.events))
        # the statistics are taken: a transaction still pending is held
        # only by the logs below from here on
        self.network.mempool.release()
        # aggregate-lane txs never become records (they carry no client
        # identity); they are counted here and in the population block.
        # Only that lane leaves submissions unbuilt, so the network's
        # count of them is the lane's
        aggregate_sent = []
        for secondary in self.secondaries:
            aggregate_sent += secondary.aggregate_sent
            secondary.aggregate_sent = []
        aggregate_unbuilt = self.network.dropped_unbuilt
        if aggregate_sent or aggregate_unbuilt:
            result.chain_stats["arrivals_aggregate"] = (
                len(aggregate_sent) + aggregate_unbuilt)
        record = TransactionRecord.from_transaction
        records = result.records
        sent = 0
        for secondary in self.secondaries:
            # take the log and consume it tick by tick: once a tick's
            # records are built, a transaction nothing else holds (an
            # evicted or a pending one) is freed by reference counting,
            # so records replace transactions instead of adding to them
            log, secondary.sent = secondary.sent, []
            log.reverse()
            while log:
                txs, clients = log.pop()
                sent += len(txs)
                # one tick at a time: the table spreads the tick's records
                # into its columns and the records go, so no record
                # outlives its tick; a transaction the Secondary generated
                # but never handed to a node has no place in latency or
                # throughput aggregates — it is counted below instead
                records.extend([record(tx, client.name)
                                for tx, client in zip(txs, clients)
                                if tx.submitted_at is not None])
        records_without_submit = sent - len(records)
        if records_without_submit:
            result.chain_stats["records_without_submit"] = (
                records_without_submit)
        if self._sampler is not None:
            result.timeseries = list(self._sampler.samples)
        if self.network.fee_market is not None:
            economics = self.network.fee_market.economics()
            if self.adversary is not None:
                economics["adversary"] = self.adversary.stats()
            result.economics = economics
        if spec.population is not None:
            # every TransactionRecord of a population run is a cohort record
            result.population = population_block(
                spec.population, result, aggregate_sent, aggregate_unbuilt)
        return result
