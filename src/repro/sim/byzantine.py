"""Declarative Byzantine adversary injection for the consensus stack.

The fault schedules in :mod:`repro.sim.faults` model nodes that *die*;
this module models nodes that *lie*. A :class:`ByzantineSchedule` is a
list of timed misbehaviour windows — equivocation, vote withholding,
selective delay/reordering, leader-targeted censorship — and a
:class:`ByzantineAdversary` enacts them by interposing on the message
path of :class:`repro.consensus.base.ConsensusHarness`, so every
message-level protocol (HotStuff, IBFT, Tower BFT, Algorand, Raft,
Clique, Snowball) can be driven with up to ``f`` adversarial replicas
without touching the protocol logic itself.

Adversary model (see ARCHITECTURE.md "Adversary model" for the full
statement): the adversary controls the scheduled replicas' outgoing
messages only. It can fork, withhold, delay and selectively drop what
those replicas send, and drop what they receive from a targeted leader —
it cannot forge signatures (equivocated values are *marked* variants of
real payloads, never fabrications attributed to honest nodes), spawn
Sybil identities, or touch honest-to-honest traffic.

The empty schedule is a strict no-op: the harness normalises an
adversary with no events to ``None`` and never consults it, so benign
runs stay byte-identical with or without the subsystem (the same
contract the tracing layer makes).
"""

from __future__ import annotations

import dataclasses
import weakref
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.common.errors import SpecError
from repro.common.reader import read_events
from repro.common.rng import RngFactory

#: marker appended to forked leaf values; honest protocols treat payloads
#: as opaque, so a suffixed variant is a coherent competing value
EQUIVOCATION_MARK = "~equiv"

# -- byzantine events --------------------------------------------------------


def _check_window(event: Any) -> None:
    if event.start < 0:
        raise SpecError(
            f"byzantine windows cannot open before t=0: {event!r}")
    if event.stop <= event.start:
        raise SpecError(
            f"byzantine window must close after it opens: {event!r}")


@dataclass(frozen=True)
class Equivocate:
    """*node* sends conflicting variants to disjoint peer sets.

    Within [start, stop) every protocol message the node sends reaches
    half of its peers unchanged and the other half with the value-bearing
    fields forked (structure, certificates and parent links preserved).
    """

    start: float
    stop: float
    node: int

    def __post_init__(self) -> None:
        _check_window(self)


@dataclass(frozen=True)
class Silence:
    """*node* withholds all outgoing protocol messages in [start, stop).

    Unlike a crash the node keeps receiving and updating local state —
    it is a vote-withholding attack, not a fail-stop.
    """

    start: float
    stop: float
    node: int

    def __post_init__(self) -> None:
        _check_window(self)


@dataclass(frozen=True)
class DelayReorder:
    """*node* delays each outgoing message by a random amount.

    Per-message delays are drawn i.i.d. from [min_delay, max_delay), so
    messages sent in one order can arrive reordered — a rushing/lagging
    adversary bounded by the window.
    """

    start: float
    stop: float
    node: int
    min_delay: float = 0.05
    max_delay: float = 0.5

    def __post_init__(self) -> None:
        _check_window(self)
        if self.min_delay < 0:
            raise SpecError(
                f"min_delay cannot be negative: {self.min_delay}")
        if self.max_delay < self.min_delay:
            raise SpecError(
                f"max_delay must be >= min_delay: {self.max_delay}"
                f" < {self.min_delay}")


@dataclass(frozen=True)
class CensorLeader:
    """*node* drops all traffic to and from the current leader.

    The censor starves whoever its own protocol state machine believes
    leads the current view/round/slot. Leaderless protocols (Algorand's
    sortition committees, Snowball) have no stable target; there the
    event is a no-op by design.
    """

    start: float
    stop: float
    node: int

    def __post_init__(self) -> None:
        _check_window(self)


ByzantineEvent = Any  # Union of the dataclasses above

_BYZ_KINDS = {
    Equivocate: "equivocate",
    Silence: "silence",
    DelayReorder: "delay_reorder",
    CensorLeader: "censor_leader",
}


def byzantine_event_kind(event: ByzantineEvent) -> str:
    """Short string tag for an event ('equivocate', 'silence', ...)."""
    try:
        return _BYZ_KINDS[type(event)]
    except KeyError:
        raise SpecError(f"unknown byzantine event {event!r}") from None


def byzantine_event_summary(event: ByzantineEvent) -> Dict[str, Any]:
    """JSON-friendly description of one event (for benchmark results).

    Summaries use the same ``at``/``kind`` envelope as fault events plus
    a ``duration``, so they merge into ``BenchmarkResult.fault_events``
    and the degradation metrics treat the window as a disruption.
    """
    summary: Dict[str, Any] = {
        "at": event.start,
        "kind": byzantine_event_kind(event),
        "node": event.node,
        "duration": event.stop - event.start,
    }
    if isinstance(event, DelayReorder):
        summary["min_delay"] = event.min_delay
        summary["max_delay"] = event.max_delay
    return summary


def byzantine_events_from_dicts(
        raw: Sequence[Dict[str, Any]],
        path: str = "byzantine") -> Tuple[ByzantineEvent, ...]:
    """Parse the ``byzantine:`` section of a workload spec: a list of
    ``{start, stop, kind, node}`` windows, one key set per kind
    (docs/ARCHITECTURE.md, "Workload spec sections"), for example
    ``{start: 10, stop: 30, kind: silence, nodes: [1, 2]}``: every kind
    takes ``node: k`` or ``nodes: [...]``, one event per node.
    """
    return read_events(raw, path,
                       {kind: cls for cls, kind in _BYZ_KINDS.items()})


# -- the schedule ------------------------------------------------------------


@dataclass(frozen=True)
class ByzantineSchedule:
    """An ordered list of misbehaviour windows applied over one run."""

    events: Tuple[ByzantineEvent, ...] = ()

    def __post_init__(self) -> None:
        for event in self.events:
            byzantine_event_kind(event)  # validates the type
        ordered = tuple(sorted(
            self.events,
            key=lambda e: (e.start, e.stop, byzantine_event_kind(e), e.node)))
        object.__setattr__(self, "events", ordered)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    @staticmethod
    def from_dicts(raw: Sequence[Dict[str, Any]]) -> "ByzantineSchedule":
        return ByzantineSchedule(byzantine_events_from_dicts(raw))

    def summaries(self) -> List[Dict[str, Any]]:
        return [byzantine_event_summary(event) for event in self.events]

    def nodes(self) -> Tuple[int, ...]:
        """Sorted ids of every replica the schedule corrupts at any time."""
        return tuple(sorted({event.node for event in self.events}))

    def active_nodes(self, now: float) -> Set[int]:
        """Replicas misbehaving at virtual time *now*."""
        return {e.node for e in self.events if e.start <= now < e.stop}

    def active_fraction(self, now: float, node_count: int) -> float:
        """Fraction of the deployment misbehaving at *now* (for the
        analytic :class:`~repro.consensus.models.ConsensusPerfModel`)."""
        if node_count <= 0:
            return 0.0
        return len(self.active_nodes(now)) / node_count

    def validate(self, node_count: int) -> None:
        """Fail fast if any event names a replica outside the deployment."""
        for event in self.events:
            if not 0 <= event.node < node_count:
                raise SpecError(
                    f"byzantine event references unknown node {event.node!r}"
                    f" (deployment has {node_count} nodes):"
                    f" {byzantine_event_summary(event)}")


# -- equivocation: structural payload forking --------------------------------

#: leaf strings under these field names carry the proposed value (or a
#: digest of it) and are forked on the equivocating half of the audience
_VALUE_FIELDS = frozenset({"value", "digest", "block_id", "hash",
                           "preference"})

#: subtrees under these field names are certificates or chain linkage;
#: forking them would make the variant *invalid* (rejected, degrading the
#: attack to silence) rather than *conflicting*, so they are preserved
_PRESERVE_FIELDS = frozenset({"justify", "high_qc", "parent_id",
                              "parent_slot", "prev_index", "prev_term",
                              "leader_commit"})


def _variant_value(obj: Any, marked: bool, key: Optional[str],
                   changed: List[bool]) -> Any:
    """Deep-copy *obj*, normalising value-bearing leaf strings to one of
    the two equivocation stories.

    ``marked=True`` yields the forked story (mark appended),
    ``marked=False`` the plain one (mark stripped). Normalising rather
    than blindly appending lets *several* equivocators tell the same two
    stories — each signs the plain variant towards even peers and the
    marked variant towards odd peers, whichever variant it happens to
    hold — which is the classical coordinated double-sign. Certificate
    and linkage subtrees pass through unchanged (shared with the
    original — receivers never mutate them).
    """
    if key in _PRESERVE_FIELDS:
        return obj
    if isinstance(obj, str):
        if key in _VALUE_FIELDS:
            if marked and not obj.endswith(EQUIVOCATION_MARK):
                changed.append(True)
                return obj + EQUIVOCATION_MARK
            if not marked and obj.endswith(EQUIVOCATION_MARK):
                changed.append(True)
                return obj[:-len(EQUIVOCATION_MARK)]
        return obj
    if isinstance(obj, dict):
        return {k: _variant_value(v, marked, k, changed)
                for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return type(obj)(_variant_value(item, marked, key, changed)
                         for item in obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        kwargs = {f.name: _variant_value(getattr(obj, f.name), marked,
                                         f.name, changed)
                  for f in dataclasses.fields(obj) if f.init}
        return type(obj)(**kwargs)
    return obj


def equivocal_variant(message: Any, marked: bool) -> Tuple[Any, bool]:
    """The story-*marked* variant of a protocol message.

    Returns ``(message, changed)``; when nothing needed normalising the
    original object passes through untouched (``changed`` False).
    """
    changed: List[bool] = []
    payload = _variant_value(message.payload, marked, None, changed)
    if not changed:
        return message, False
    return type(message)(kind=message.kind, sender=message.sender,
                         payload=payload, size=message.size), True


# -- the adversary -----------------------------------------------------------


class ByzantineAdversary:
    """Enacts a :class:`ByzantineSchedule` on a consensus harness.

    The harness consults :meth:`intervene` on every routed message after
    crash/partition filtering and before stochastic loss; the adversary
    decides to drop, fork or delay it. All randomness comes from the
    adversary's own named RNG streams, so attaching it never perturbs the
    harness's loss draws (and an empty schedule is normalised away by the
    harness before any draw can happen).
    """

    def __init__(self, schedule: ByzantineSchedule,
                 seed: int = 0, tracer: Optional[Any] = None) -> None:
        self.schedule = schedule
        self.tracer = tracer
        self._delay_rng = RngFactory(seed).stream("byzantine", "delay")
        self._windows: Dict[str, Dict[int, List[ByzantineEvent]]] = {
            kind: {} for kind in _BYZ_KINDS.values()}
        for event in schedule:
            kind = byzantine_event_kind(event)
            self._windows[kind].setdefault(event.node, []).append(event)
        self._harness: Optional[Any] = None
        self._counters: Dict[str, Any] = {}

    def bind(self, harness: Any) -> None:
        """Attach to a harness: counters land in its metrics registry.

        The harness holds the adversary, so the adversary holds it through
        a proxy, as its replicas do: a dropped harness is freed by
        reference counting, not left in a cycle for the collector.
        """
        self._harness = weakref.proxy(harness)
        ns = harness.metrics.namespace("byzantine")
        self._counters = {
            "equivocations": ns.counter("equivocations"),
            "withheld": ns.counter("withheld"),
            "delayed": ns.counter("delayed"),
            "censored": ns.counter("censored"),
        }
        if self.tracer is not None:
            for index, event in enumerate(self.schedule):
                self.tracer.adversary_window(
                    index, byzantine_event_kind(event),
                    event.start, event.stop, event.node)

    def nodes(self) -> Tuple[int, ...]:
        return self.schedule.nodes()

    def counters(self) -> Dict[str, int]:
        """Intervention totals so far (empty before :meth:`bind`)."""
        return {name: counter.value
                for name, counter in self._counters.items()}

    def _active(self, kind: str, node: int, now: float
                ) -> Optional[ByzantineEvent]:
        for event in self._windows[kind].get(node, ()):
            if event.start <= now < event.stop:
                return event
        return None

    def _count(self, name: str) -> None:
        counter = self._counters.get(name)
        if counter is not None:
            counter.inc()

    def _trace(self, now: float, action: str, **info: Any) -> None:
        if self.tracer is not None:
            self.tracer.adversary_action(now, action, **info)

    # -- interposition -------------------------------------------------------

    def intervene(self, sender: int, target: int, message: Any,
                  now: float) -> Tuple[Optional[Any], float]:
        """Decide the fate of one routed message.

        Returns ``(message, extra_delay)``; ``message`` is ``None`` when
        the adversary swallows it, the original when it passes untouched,
        or a forked variant for the equivocating half of the audience.
        Self-deliveries pass undropped and undelayed; an equivocator's
        self-delivery is normalised to its own parity's story so the
        adversarial replica itself stays internally consistent with the
        fork it shows its half of the network.
        """
        if sender == target:
            if self._active("equivocate", sender, now) is not None:
                message, _ = equivocal_variant(
                    message, marked=self._forked_audience(sender))
            return message, 0.0
        if self._active("silence", sender, now) is not None:
            self._count("withheld")
            self._trace(now, "withheld", node=sender,
                        to=target, message=message.kind)
            return None, 0.0
        if self._censors_pair(sender, target, now):
            self._count("censored")
            self._trace(now, "censored", node=sender,
                        to=target, message=message.kind)
            return None, 0.0
        delay = 0.0
        event = self._active("delay_reorder", sender, now)
        if event is not None:
            span = event.max_delay - event.min_delay
            delay = event.min_delay + span * float(self._delay_rng.random())
            self._count("delayed")
            self._trace(now, "delayed", node=sender, to=target,
                        message=message.kind, delay=round(delay, 6))
        if self._active("equivocate", sender, now) is not None:
            message, forked = equivocal_variant(
                message, marked=self._forked_audience(target))
            if forked:
                self._count("equivocations")
                self._trace(now, "equivocated", node=sender, to=target,
                            message=message.kind)
        return message, delay

    @staticmethod
    def _forked_audience(target: int) -> bool:
        """Odd-indexed peers receive the marked story, even-indexed the
        plain one — a fixed disjoint split, so each half observes a
        self-consistent history."""
        return target % 2 == 1

    def _censors_pair(self, sender: int, target: int, now: float) -> bool:
        """Does an active censor sit on either end of this delivery,
        with the *other* end being its current leader?"""
        if self._active("censor_leader", sender, now) is not None:
            if self._guess_leader(sender) == target:
                return True
        if self._active("censor_leader", target, now) is not None:
            if self._guess_leader(target) == sender:
                return True
        return False

    def _guess_leader(self, censor: int) -> Optional[int]:
        """The censor's local belief about who currently leads.

        Duck-types the protocol's own leader accessors; leaderless
        protocols expose none and yield ``None`` (no-op censorship).
        """
        if self._harness is None:
            return None
        replica = self._harness.replicas[censor]
        try:
            if hasattr(replica, "leader_of"):
                if hasattr(replica, "view"):        # hotstuff
                    return int(replica.leader_of(replica.view))
                if hasattr(replica, "current_slot"):  # tower bft
                    return int(replica.leader_of(replica.current_slot))
            if hasattr(replica, "proposer_of"):     # ibft
                return int(replica.proposer_of(replica.height,
                                               replica.round))
            if hasattr(replica, "in_turn"):         # clique
                return int(replica.in_turn(replica.head.height + 1))
            if hasattr(replica, "role"):            # raft: scan for the leader
                for i, peer in enumerate(self._harness.replicas):
                    if getattr(peer, "role", None) == "leader":
                        return i
        except (AttributeError, TypeError, ValueError):
            return None
        return None
