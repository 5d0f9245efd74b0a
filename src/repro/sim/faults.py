"""Declarative fault injection driven by the discrete-event clock.

The paper's headline robustness results (Fig. 4's overload collapse, §6.5's
availability trade-offs) are about behaviour *under adverse conditions*. This
module makes those conditions first-class benchmark inputs, in the spirit of
BLOCKBENCH's fault-injection dimension: a :class:`FaultSchedule` is a list of
timed events — node crashes and recoveries, network partitions and heals,
whole-region outages, per-link degradation — and a :class:`FaultInjector`
applies them at their scheduled virtual times.

The injector only answers questions; the callers apply the answers. At
message level, ``ConsensusHarness.route`` drops a message to or from a
crashed or unreachable replica and delays or loses it on a degraded link
(:meth:`FaultInjector.link_faults`). At chain level, the chain core stops
production without a live quorum, skips unavailable leaders, and the
overload response crashes a validator out of memory through the same
injector. Nodes are keyed by replica or endpoint index, and links and
partitions may also name regions; all queries accept any hashable key.

Link degradation is undirected: degrading (a, b) also degrades (b, a), and
re-degrading a link with zero extra latency and zero drop rate restores it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.common.errors import SimulationError, SpecError
from repro.common.reader import each, read_events

if TYPE_CHECKING:
    from repro.sim.engine import Engine

NodeKey = Hashable

# -- fault events ------------------------------------------------------------


@dataclass(frozen=True)
class NodeCrash:
    """Fail-stop a node at *time*: it neither sends nor receives."""

    time: float
    node: NodeKey


@dataclass(frozen=True)
class NodeRecover:
    """A crashed node rejoins at *time* and catches up from its peers."""

    time: float
    node: NodeKey


@dataclass(frozen=True)
class Partition:
    """Split the network into *groups* at *time*.

    Nodes in different groups cannot exchange messages. Nodes not named in
    any group form one implicit extra group ("the rest"), so one listed
    group cuts its nodes off from all the others.
    """

    time: float
    groups: Tuple[Tuple[NodeKey, ...], ...]

    def __post_init__(self) -> None:
        if not self.groups:
            raise SimulationError("a partition needs at least one group")
        seen: Set[NodeKey] = set()
        for group in self.groups:
            for node in group:
                if node in seen:
                    raise SimulationError(
                        f"node {node!r} appears in two partition groups")
                seen.add(node)


@dataclass(frozen=True)
class Heal:
    """Remove the active partition at *time*."""

    time: float


@dataclass(frozen=True)
class RegionOutage:
    """Take a whole region offline at *time* for *duration* seconds."""

    time: float
    region: str
    duration: float

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise SimulationError(
                f"region outage needs a positive duration, got {self.duration}")


@dataclass(frozen=True)
class LinkDegrade:
    """Degrade the (undirected) link between *src* and *dst* at *time*.

    ``extra_latency`` seconds are added to every delivery; ``drop_rate`` is
    an i.i.d. loss probability on top of any baseline loss. Zero for both
    restores the link.
    """

    time: float
    src: NodeKey
    dst: NodeKey
    extra_latency: float = 0.0
    drop_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.extra_latency < 0:
            raise SimulationError(
                f"extra_latency cannot be negative: {self.extra_latency}")
        if not 0.0 <= self.drop_rate <= 1.0:
            raise SimulationError(
                f"drop_rate must be in [0, 1], got {self.drop_rate}")


FaultEvent = Any  # Union of the dataclasses above

_EVENT_KINDS = {
    NodeCrash: "crash",
    NodeRecover: "recover",
    Partition: "partition",
    Heal: "heal",
    RegionOutage: "region_outage",
    LinkDegrade: "link_degrade",
}


def event_kind(event: FaultEvent) -> str:
    """Short string tag for an event ('crash', 'heal', ...)."""
    try:
        return _EVENT_KINDS[type(event)]
    except KeyError:
        raise SimulationError(f"unknown fault event {event!r}") from None


def event_summary(event: FaultEvent) -> Dict[str, Any]:
    """JSON-friendly description of one event (for benchmark results)."""
    summary: Dict[str, Any] = {"at": event.time, "kind": event_kind(event)}
    if isinstance(event, (NodeCrash, NodeRecover)):
        summary["node"] = event.node
    elif isinstance(event, Partition):
        summary["groups"] = [list(g) for g in event.groups]
    elif isinstance(event, RegionOutage):
        summary["region"] = event.region
        summary["duration"] = event.duration
    elif isinstance(event, LinkDegrade):
        summary.update(src=event.src, dst=event.dst,
                       extra_latency=event.extra_latency,
                       drop_rate=event.drop_rate)
    return summary


def _node_key(value: Any, path: str) -> NodeKey:
    if isinstance(value, str) or (isinstance(value, int)
                                  and not isinstance(value, bool)):
        return value
    raise TypeError(f"expected a node index or name, got {value!r}")


def events_from_dicts(raw: Sequence[Dict[str, Any]],
                      path: str = "faults") -> Tuple[FaultEvent, ...]:
    """Parse the ``faults:`` section of a workload spec: a list of
    ``{at: <seconds>, kind: <kind>, ...}`` mappings, one key set per kind
    (docs/ARCHITECTURE.md, "Workload spec sections"), for example
    ``{at: 30, kind: crash, nodes: [0, 1]}``: ``crash`` and ``recover``
    take ``node: k`` or ``nodes: [...]``, one event per node.
    """
    return read_events(
        raw, path, {kind: cls for cls, kind in _EVENT_KINDS.items()},
        alias={"time": "at"},
        build={"node": _node_key, "src": _node_key, "dst": _node_key,
               "groups": each(each(_node_key))})


# -- the schedule ------------------------------------------------------------


@dataclass(frozen=True)
class FaultSchedule:
    """An ordered list of fault events applied over one run."""

    events: Tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        for event in self.events:
            event_kind(event)  # validates the type
            if event.time < 0:
                raise SimulationError(
                    f"fault events cannot be scheduled before t=0: {event!r}")
        ordered = tuple(sorted(self.events, key=lambda e: e.time))
        object.__setattr__(self, "events", ordered)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    @staticmethod
    def from_dicts(raw: Sequence[Dict[str, Any]]) -> "FaultSchedule":
        return FaultSchedule(events_from_dicts(raw))

    def summaries(self) -> List[Dict[str, Any]]:
        """One :func:`event_summary` per event; a result's fault window
        (``BenchmarkResult.fault_window``) is computed from these."""
        return [event_summary(event) for event in self.events]

    def validate(self, nodes: Iterable[NodeKey],
                 regions: Iterable[str] = ()) -> None:
        """Fail fast if an event references an unknown node or region.

        *nodes* is every key the deployment can answer for (replica or
        endpoint indices, endpoint names, region tags); link endpoints
        may additionally be regions. Raises
        :class:`~repro.common.errors.SpecError` naming the offending
        event instead of a ``KeyError`` mid-run.
        """
        known = set(nodes)
        known_regions = set(regions)
        link_keys = known | known_regions

        def fail(what: str, value: Any, event: FaultEvent) -> None:
            raise SpecError(
                f"fault event references unknown {what} {value!r}:"
                f" {event_summary(event)}")

        for event in self.events:
            if isinstance(event, (NodeCrash, NodeRecover)):
                if event.node not in known:
                    fail("node", event.node, event)
            elif isinstance(event, Partition):
                for group in event.groups:
                    for node in group:
                        if node not in known and node not in known_regions:
                            fail("node", node, event)
            elif isinstance(event, RegionOutage):
                if event.region not in known_regions:
                    fail("region", event.region, event)
            elif isinstance(event, LinkDegrade):
                if event.src not in link_keys:
                    fail("link endpoint", event.src, event)
                if event.dst not in link_keys:
                    fail("link endpoint", event.dst, event)


# -- the injector -------------------------------------------------------------


@dataclass
class _LinkState:
    extra_latency: float = 0.0
    drop_rate: float = 0.0


class FaultInjector:
    """Applies a :class:`FaultSchedule` and answers reachability queries.

    A consensus harness consults it on every route while a fault is in
    force; the chain core consults it for its quorum and leader checks,
    and the overload response crashes validators through it. Callers may
    also drive it manually (``crash``/``recover``/``partition``/...).
    """

    def __init__(self, schedule: Optional[FaultSchedule] = None) -> None:
        self.schedule = schedule or FaultSchedule()
        self.crashed: Set[NodeKey] = set()
        self._groups: Optional[Tuple[frozenset, ...]] = None
        self._regions_down: Set[str] = set()
        self._links: Dict[Tuple[NodeKey, NodeKey], _LinkState] = {}
        self._listeners: List[Callable[[str, Any], None]] = []
        self._registered = False
        self.events_applied: List[Tuple[float, str]] = []

    # -- wiring ----------------------------------------------------------------

    def subscribe(self, listener: Callable[[str, Any], None]) -> None:
        """Register a callback invoked as ``listener(kind, payload)``."""
        self._listeners.append(listener)

    def register(self, engine: Engine) -> None:
        """Schedule every event of the schedule on *engine* (idempotent)."""
        if self._registered:
            return
        self._registered = True
        for event in self.schedule:
            if event.time <= engine.now:
                self.apply(event, engine)
            else:
                engine.schedule_at(
                    event.time,
                    lambda e=event: self.apply(e, engine),
                    label=f"fault-{event_kind(event)}")

    def apply(self, event: FaultEvent, engine: Optional[Engine] = None) -> None:
        """Apply one fault event now."""
        kind = event_kind(event)
        if isinstance(event, NodeCrash):
            self.crash(event.node)
        elif isinstance(event, NodeRecover):
            self.recover(event.node)
        elif isinstance(event, Partition):
            self.partition(event.groups)
        elif isinstance(event, Heal):
            self.heal()
        elif isinstance(event, RegionOutage):
            self.region_outage(event.region)
            if engine is not None:
                engine.schedule_after(
                    event.duration,
                    lambda: self.region_heal(event.region),
                    label="fault-region-heal")
        elif isinstance(event, LinkDegrade):
            self.degrade_link(event.src, event.dst,
                              event.extra_latency, event.drop_rate)
        time = engine.now if engine is not None else event.time
        self.events_applied.append((time, kind))

    def _notify(self, kind: str, payload: Any) -> None:
        for listener in self._listeners:
            listener(kind, payload)

    # -- state transitions ------------------------------------------------------

    def crash(self, node: NodeKey) -> None:
        self.crashed.add(node)
        self._notify("crash", node)

    def recover(self, node: NodeKey) -> None:
        self.crashed.discard(node)
        self._notify("recover", node)

    def partition(self, groups: Iterable[Iterable[NodeKey]]) -> None:
        self._groups = tuple(frozenset(group) for group in groups)
        self._notify("partition", self._groups)

    def heal(self) -> None:
        self._groups = None
        self._notify("heal", None)

    def region_outage(self, region: str) -> None:
        self._regions_down.add(region)
        self._notify("region_outage", region)

    def region_heal(self, region: str) -> None:
        self._regions_down.discard(region)
        self._notify("region_heal", region)

    def degrade_link(self, a: NodeKey, b: NodeKey,
                     extra_latency: float, drop_rate: float) -> None:
        key = self._link_key(a, b)
        if extra_latency <= 0 and drop_rate <= 0:
            self._links.pop(key, None)
        else:
            self._links[key] = _LinkState(extra_latency, drop_rate)
        self._notify("link_degrade", key)

    # -- queries ------------------------------------------------------------------

    @property
    def fault_free(self) -> bool:
        """No fault of any kind is in force right now.

        Read from the state itself on every call, so a fault event applied
        at this instant is seen by the very next query. When true, every
        node is available, every pair reachable and every link clean; a
        caller about to ask those per message can skip the questions.
        """
        return not (self.crashed or self._groups is not None
                    or self._regions_down or self._links)

    def is_crashed(self, node: NodeKey) -> bool:
        return node in self.crashed

    def region_down(self, region: Optional[str]) -> bool:
        return region is not None and region in self._regions_down

    def node_available(self, node: NodeKey,
                       region: Optional[str] = None) -> bool:
        """A node participates iff it is not crashed and its region is up."""
        return not self.is_crashed(node) and not self.region_down(region)

    def _group_of(self, node: NodeKey) -> int:
        """Group index of *node*; unlisted nodes share the implicit rest (-1)."""
        assert self._groups is not None
        for index, group in enumerate(self._groups):
            if node in group:
                return index
        return -1

    def same_side(self, a: NodeKey, b: NodeKey) -> bool:
        """True unless an active partition separates *a* and *b*."""
        if self._groups is None or a == b:
            return True
        return self._group_of(a) == self._group_of(b)

    def reachable(self, a: NodeKey, b: NodeKey,
                  a_region: Optional[str] = None,
                  b_region: Optional[str] = None) -> bool:
        """Can a message flow between *a* and *b* right now?

        Combines crash state, region outages and the active partition. The
        partition is checked on the node keys and, when regions are given,
        on the regions too, so region-granular partitions work at every
        layer.
        """
        if not self.node_available(a, a_region):
            return False
        if not self.node_available(b, b_region):
            return False
        if not self.same_side(a, b):
            return False
        if (a_region is not None and b_region is not None
                and not self.same_side(a_region, b_region)):
            return False
        return True

    @staticmethod
    def _link_key(a: NodeKey, b: NodeKey) -> Tuple[NodeKey, NodeKey]:
        return (a, b) if repr(a) <= repr(b) else (b, a)

    def link_state(self, a: NodeKey, b: NodeKey) -> Tuple[float, float]:
        """(extra latency, extra drop rate) for the undirected link a—b."""
        state = self._links.get(self._link_key(a, b))
        if state is None:
            return 0.0, 0.0
        return state.extra_latency, state.drop_rate

    def link_faults(self, a: NodeKey, b: NodeKey,
                    a_region: str, b_region: str) -> Tuple[float, float]:
        """(extra latency, drop rate) of a message from *a* to *b*.

        The pair's own link and, across regions, the link between their
        regions both apply: the latencies add and the losses are
        independent, so the drop rate is ``1 - (1 - p) * (1 - q)``.
        """
        extra, drop = self.link_state(a, b)
        if a_region != b_region:
            region_extra, region_drop = self.link_state(a_region, b_region)
            extra += region_extra
            drop = 1.0 - (1.0 - drop) * (1.0 - region_drop)
        return extra, drop

    def largest_side_available(self, nodes: Sequence[NodeKey],
                               regions: Optional[Sequence[Optional[str]]] = None
                               ) -> int:
        """Size of the largest mutually-connected set of available nodes.

        The analytic blockchain runtimes use this as their quorum check: a
        protocol needing ``q`` live, connected validators makes progress iff
        ``largest_side_available(...) >= q``.
        """
        if regions is None:
            regions = [None] * len(nodes)
        by_side: Dict[Any, int] = {}
        for node, region in zip(nodes, regions):
            if not self.node_available(node, region):
                continue
            if self._groups is None:
                side: Any = 0
            else:
                side = self._group_of(node)
                region_side = (self._group_of(region)
                               if region is not None else -1)
                side = (side, region_side)
            by_side[side] = by_side.get(side, 0) + 1
        return max(by_side.values(), default=0)
