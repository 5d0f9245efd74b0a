"""Consensus protocol framework (message-level fidelity).

Protocols are implemented as per-node state machines exchanging messages
over the simulated network. A :class:`ConsensusHarness` wires ``n`` replicas
on the discrete-event engine, feeds them client payloads and collects their
commit sequences, so protocol-correctness tests can assert the fundamental
invariants — agreement (no two nodes commit different values at the same
height), total order, and liveness under partial synchrony.

The large-scale blockchain runtimes use the analytic models in
:mod:`repro.consensus.models` instead; the message-level implementations are
the ground truth those models are validated against (see
``tests/consensus/test_model_calibration.py``).
"""

from __future__ import annotations

import weakref
from collections import deque
from dataclasses import dataclass, field
from functools import partial
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

from repro.common.errors import SimulationError
from repro.common.rng import RngFactory
from repro.obs.metrics import MetricsRegistry
from repro.sim.engine import Engine, collector_paused
from repro.sim.faults import FaultInjector
from repro.sim.network import Network, spread_endpoints

if TYPE_CHECKING:
    from repro.obs.metrics import Counter
    from repro.sim.network import Endpoint

VOTE_MESSAGE_SIZE = 200  # bytes: digest + signature + metadata


@dataclass(slots=True)
class Message:
    """A protocol message between replicas."""

    kind: str
    sender: int
    payload: Dict[str, Any] = field(default_factory=dict)
    size: int = VOTE_MESSAGE_SIZE


@dataclass(slots=True, unsafe_hash=True)
class Decision:
    """A committed value: (height/slot, value, deciding node, time).

    Treated as immutable, and hashed by value like a frozen dataclass, but
    not frozen: a frozen one pays an ``object.__setattr__`` per field on
    construction, once per replica per decided value.
    """

    height: int
    value: Any
    node: int
    time: float


class Replica:
    """Base class for one consensus participant.

    Subclasses implement ``on_start`` and ``on_message``; they call
    ``self.send``/``self.broadcast`` to communicate and ``self.decide`` when
    a value commits locally. A protocol with one ``_on_<kind>`` method per
    message kind sets ``on_message = Replica.dispatch``.
    """

    def __init__(self) -> None:
        # wired by the harness, which it holds weakly (a proxy): the
        # harness owns its replicas
        self.node_id: int = -1
        self.harness: "ConsensusHarness" = None  # type: ignore[assignment]
        #: cluster size, Byzantine faults tolerated (n-1)//3, quorum 2f+1
        self.n = self.f = self.quorum = 0
        # filled on first sight: message kind -> the class's ``_on_<kind>``
        # (unbound: a bound method held by its own replica is a cycle),
        # counter name -> the registry's ``replica.<protocol>.<name>``
        self._handlers: Dict[str, Callable[[Replica, Message], None]] = {}
        self._counters: Dict[str, Counter] = {}

    # -- harness plumbing ----------------------------------------------------------

    @property
    def now(self) -> float:
        return self.harness.engine.now

    def send(self, target: int, message: Message) -> None:
        self.harness.route(self.node_id, (target,), message)

    def broadcast(self, message: Message, include_self: bool = True) -> None:
        targets: Sequence[int] = range(self.n)
        if not include_self:
            targets = [t for t in targets if t != self.node_id]
        self.harness.route(self.node_id, targets, message)

    def schedule(self, delay: float, callback: Callable[[], None],
                 label: str = "") -> Any:
        return self.harness.engine.schedule_after(delay, callback, label)

    def decide(self, height: int, value: Any) -> None:
        self.harness.record_decision(
            Decision(height, value, self.node_id, self.now))

    def count(self, name: str, amount: int = 1) -> None:
        """Bump a protocol counter (``replica.<protocol>.<name>``).

        Protocol subclasses use this for their per-protocol event totals
        (proposals, votes cast, view changes, polls...), which land in the
        harness's shared registry next to the routing counters.
        """
        counter = self._counters.get(name)
        if counter is None:
            protocol = type(self).__name__.lower()
            counter = self._counters[name] = self.harness.metrics.counter(
                f"replica.{protocol}.{name}")
        counter.inc(amount)

    def next_payload(self) -> Any:
        """Fetch the next client payload to propose (or a filler)."""
        return self.harness.next_payload(self.node_id)

    # -- protocol hooks -----------------------------------------------------------

    def on_start(self) -> None:
        """Called once when the harness starts."""

    def on_message(self, message: Message) -> None:
        """Called on each delivered message."""
        raise NotImplementedError

    def dispatch(self, message: Message) -> None:
        """Hand *message* to ``self._on_<kind>`` (dashes as underscores)."""
        handler = self._handlers.get(message.kind)
        if handler is None:
            handler = self._handlers[message.kind] = getattr(
                type(self), "_on_" + message.kind.replace("-", "_"))
        handler(self, message)

    def on_recover(self) -> None:
        """Called when this replica rejoins after a crash.

        Subclasses re-arm timers and run whatever state sync their protocol
        needs; the default is to rejoin with frozen state and catch up from
        incoming traffic.
        """


class ConsensusHarness:
    """Runs ``n`` replicas of a protocol over the simulated network.

    No reference cycle runs through a benign harness: its replicas and
    its injector's listener hold it weakly, and a pending event's handle
    holds the engine weakly. So dropping a harness frees it, its
    replicas and its calendar by reference counting.
    """

    def __init__(self, replicas: Sequence[Replica],
                 engine: Optional[Engine] = None,
                 regions: Optional[Iterable[str]] = None,
                 seed: int = 0,
                 drop_rate: float = 0.0,
                 injector: Optional[FaultInjector] = None,
                 adversary: Optional[Any] = None,
                 auditor: Optional[Any] = None) -> None:
        self.engine = engine or Engine()
        self.replicas = list(replicas)
        self.n = len(self.replicas)
        if self.n == 0:
            raise SimulationError("harness needs at least one replica")
        region_list = list(regions) if regions is not None else ["ohio"]
        self.endpoints: List[Endpoint] = spread_endpoints(
            self.n, region_list, prefix="replica")
        factory = RngFactory(seed)
        #: shared registry for routing counters, the network's traffic
        #: totals, and the replicas' per-protocol counters
        self.metrics = MetricsRegistry()
        self.network = Network(self.engine, factory,
                               metrics=self.metrics.namespace("network"))
        self._drop_rng = factory.stream("harness", "drops")
        self._fault_rng = factory.stream("harness", "fault-drops")
        self.drop_rate = drop_rate
        self.injector = injector or FaultInjector()
        on_fault_event = weakref.WeakMethod(self._on_fault_event)
        self.injector.subscribe(
            lambda kind, payload: on_fault_event()(kind, payload))
        if injector is not None and len(injector.schedule):
            self.injector.register(self.engine)
        self.decisions: List[Decision] = []
        self._payload_queue: deque = deque()
        self._filler_counter = 0
        # message kind -> its (network, self-delivery, degraded) event labels
        self._labels: Dict[str, Tuple[str, str, str]] = {}
        harness_metrics = self.metrics.namespace("harness")
        self._messages_routed = harness_metrics.counter("messages_routed")
        # sender or target fail-stopped
        self._dropped_by_crash = harness_metrics.counter("dropped_by_crash")
        # partition / outage / link drop rate
        self._dropped_by_fault = harness_metrics.counter("dropped_by_fault")
        # baseline drop_rate losses
        self._dropped_by_loss = harness_metrics.counter("dropped_by_loss")
        f = (self.n - 1) // 3
        proxy = weakref.proxy(self)
        for node_id, replica in enumerate(self.replicas):
            replica.node_id = node_id
            replica.harness = proxy
            replica.n, replica.f, replica.quorum = self.n, f, 2 * f + 1
        self._started = False
        # byzantine adversary + safety auditor (repro.sim.byzantine /
        # repro.consensus.auditor). An adversary with an empty schedule is
        # normalised to None so benign runs never consult it — the no-op
        # contract that keeps them byte-identical to pre-adversary runs.
        self.adversary = None
        if adversary is not None and len(adversary.schedule):
            self.adversary = adversary
            adversary.bind(self)
        self.auditor = auditor
        if auditor is not None:
            auditor.bind(self, self.adversary.nodes()
                         if self.adversary is not None else ())

    # -- registry views ---------------------------------------------------------------

    @property
    def messages_routed(self) -> int:
        return self._messages_routed.value

    @property
    def dropped_by_crash(self) -> int:
        return self._dropped_by_crash.value

    @property
    def dropped_by_fault(self) -> int:
        return self._dropped_by_fault.value

    @property
    def dropped_by_loss(self) -> int:
        return self._dropped_by_loss.value

    @property
    def crashed(self) -> set:
        """Currently crashed replica ids (a live view of injector state)."""
        return self.injector.crashed

    # -- payloads -------------------------------------------------------------------

    def submit(self, payload: Any) -> None:
        """Queue a client payload for proposal by whoever leads next."""
        self._payload_queue.append(payload)

    def next_payload(self, node_id: int) -> Any:
        if self._payload_queue:
            return self._payload_queue.popleft()
        self._filler_counter += 1
        return f"filler-{self._filler_counter}"

    # -- routing --------------------------------------------------------------------

    def crash(self, node_id: int) -> None:
        """Crash a replica: it stops sending and receiving (fail-stop)."""
        self.injector.crash(node_id)

    def recover(self, node_id: int) -> None:
        """Recover a crashed replica: it rejoins and catches up."""
        self.injector.recover(node_id)

    def _on_fault_event(self, kind: str, payload: Any) -> None:
        """Injector listener: give rejoining replicas their recovery hook."""
        if kind != "recover":
            return
        if isinstance(payload, int) and 0 <= payload < self.n:
            self.replicas[payload].on_recover()

    def route(self, sender: int, targets: Sequence[int],
              message: Message) -> None:
        """Carry *message* from *sender* to each of *targets*, in order.

        A fan-out is one call. Whether anything can intervene (a fault in
        force, an adversary, an auditor or a baseline drop rate) is
        decided once, and so are the sender's crash state and the event
        labels. Only then does each target go through :meth:`_screen`, in
        target order; otherwise a target gets the message as sent. The
        network takes the surviving deliveries as one broadcast.
        """
        self._messages_routed.inc(len(targets))
        injector = self.injector
        faulty = not injector.fault_free
        if faulty and injector.is_crashed(sender):
            self._dropped_by_crash.inc(len(targets))
            return
        kind = message.kind
        labels = self._labels.get(kind)
        if labels is None:
            labels = self._labels[kind] = (
                f"msg-{kind}", f"self-{kind}", f"degraded-{kind}")
        network_label, self_label, degraded_label = labels
        screened = (faulty or self.adversary is not None
                    or self.auditor is not None or self.drop_rate > 0)
        endpoints = self.endpoints
        replicas = self.replicas
        engine = self.engine
        deliveries: List[Tuple[Endpoint, Callable[[], None]]] = []
        for target in targets:
            if screened:
                deliver = self._screen(sender, target, message, faulty,
                                       degraded_label)
                if deliver is None:
                    continue
            else:
                deliver = partial(replicas[target].on_message, message)
            if sender == target:
                # local delivery: next event, no network transit
                engine.schedule_after(0.0, deliver, self_label)
            else:
                deliveries.append((endpoints[target], deliver))
        if deliveries:
            # every variant of a message keeps its size
            self.network.broadcast(endpoints[sender], deliveries,
                                   message.size, network_label)

    def _screen(self, sender: int, target: int, message: Message,
                faulty: bool, degraded_label: str
                ) -> Optional[Callable[[], None]]:
        """The delivery of *message* to *target*, or None if it is lost.

        The steps run in this order: crash and reachability (while a fault
        is in force), the adversary, the auditor, then, off the sender's
        own node, the link faults and the fault and baseline drop
        streams, each loss on its counter. A delivery that picks up extra
        latency is rescheduled by it on arrival.
        """
        injector = self.injector
        if faulty:
            sender_region = self.endpoints[sender].region
            target_region = self.endpoints[target].region
            if injector.is_crashed(target):
                self._dropped_by_crash.inc()
                return None
            if not injector.reachable(sender, target,
                                      sender_region, target_region):
                self._dropped_by_fault.inc()
                return None
        # every target starts from the sender's message: the adversary
        # forks per audience, never from another target's variant
        outgoing: Optional[Message] = message
        extra_latency = 0.0
        engine = self.engine
        if self.adversary is not None:
            outgoing, extra_latency = self.adversary.intervene(
                sender, target, message, engine.now)
            if outgoing is None:
                return None
        # audited post-adversary: forked variants count as endorsements
        # (they are really signed and sent), withheld ones never do
        if self.auditor is not None:
            self.auditor.observe_message(sender, target, outgoing)
        if sender != target:
            if faulty:
                link_latency, fault_drop = injector.link_faults(
                    sender, target, sender_region, target_region)
                extra_latency += link_latency
                if (fault_drop > 0
                        and float(self._fault_rng.random()) < fault_drop):
                    self._dropped_by_fault.inc()
                    return None
            if self.drop_rate > 0:
                if float(self._drop_rng.random()) < self.drop_rate:
                    self._dropped_by_loss.inc()
                    return None
        deliver: Callable[[], None] = partial(
            self.replicas[target].on_message, outgoing)
        if extra_latency > 0:
            deliver = partial(engine.schedule_after, extra_latency,
                              deliver, degraded_label)
        return deliver

    def stats(self) -> Dict[str, int]:
        """Routing statistics, fault losses accounted separately."""
        stats = {
            "messages_routed": self.messages_routed,
            "dropped_by_crash": self.dropped_by_crash,
            "dropped_by_fault": self.dropped_by_fault,
            "dropped_by_loss": self.dropped_by_loss,
        }
        if self.adversary is not None:
            for name, value in self.adversary.counters().items():
                stats[f"byzantine_{name}"] = value
        return stats

    # -- decisions -------------------------------------------------------------------

    def record_decision(self, decision: Decision) -> None:
        self.decisions.append(decision)
        if self.auditor is not None:
            self.auditor.observe_decision(decision)

    def decisions_by_node(self) -> Dict[int, List[Decision]]:
        result: Dict[int, List[Decision]] = {i: [] for i in range(self.n)}
        for decision in self.decisions:
            result[decision.node].append(decision)
        for entries in result.values():
            entries.sort(key=lambda d: d.height)
        return result

    def committed_chain(self, node: int) -> List[Tuple[int, Any]]:
        return [(d.height, d.value) for d in self.decisions_by_node()[node]]

    # -- execution --------------------------------------------------------------------

    @collector_paused()
    def run(self, until: float) -> None:
        """Run to *until*; replicas start on the first call only."""
        if not self._started:
            self._started = True
            for replica in self.replicas:
                replica.on_start()
        self.engine.run(until=until)

    # -- invariant checks (used by tests) ---------------------------------------------

    def check_agreement(self) -> None:
        """No two nodes commit different values at the same height."""
        by_height: Dict[int, Any] = {}
        for decision in self.decisions:
            if decision.height in by_height:
                if by_height[decision.height] != decision.value:
                    raise SimulationError(
                        f"agreement violated at height {decision.height}:"
                        f" {by_height[decision.height]!r} vs"
                        f" {decision.value!r} (node {decision.node})")
            else:
                by_height[decision.height] = decision.value

    def check_no_duplicate_commits(self) -> None:
        """A node commits at each height at most once."""
        seen = set()
        for decision in self.decisions:
            key = (decision.node, decision.height)
            if key in seen:
                raise SimulationError(
                    f"node {decision.node} committed height"
                    f" {decision.height} twice")
            seen.add(key)
