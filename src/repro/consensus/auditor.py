"""Online safety and liveness auditing for message-level consensus runs.

The :class:`SafetyAuditor` watches every routed message and every commit
of a :class:`~repro.consensus.base.ConsensusHarness` and checks the three
classical safety invariants *while the run executes*:

- **agreement** — no two honest nodes commit different values at the
  same height;
- **total order** — an honest node commits each height at most once
  (decision logs are per-height, so no-duplicates + agreement give a
  common prefix);
- **certificate validity** — every committed value was actually carried
  by some protocol message; a value that never crossed the wire has no
  certificate behind it and marks a fabricated commit.

Replicas named Byzantine are exempt from the invariants (a lying node
may "commit" anything) but their messages still count as endorsements:
the adversary model forbids signature forgery, so whatever a Byzantine
node *sent* is a real, signed artifact.

Violations are recorded as forensic dictionaries — which check failed,
at which height, which nodes, which conflicting values, at what times —
and, in strict mode, raised immediately as
:class:`~repro.common.errors.SafetyViolationError`.
"""

from __future__ import annotations

import dataclasses
import weakref
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.common.errors import SafetyViolationError


def _leaf_values(obj: Any) -> Iterable[str]:
    """Every leaf string reachable in a message payload.

    Mirrors the adversary's structural walk: a committed value must show
    up somewhere in some payload (proposal value, digest suffix, log
    entry) to count as endorsed on the wire.
    """
    if isinstance(obj, str):
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _leaf_values(value)
    elif isinstance(obj, (list, tuple, set, frozenset)):
        for item in obj:
            yield from _leaf_values(item)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for field in dataclasses.fields(obj):
            yield from _leaf_values(getattr(obj, field.name))


class SafetyAuditor:
    """Invariant monitor attached to one consensus harness run."""

    def __init__(self, byzantine: Iterable[int] = (),
                 strict: bool = False,
                 check_certificates: bool = True) -> None:
        self.byzantine: Set[int] = set(byzantine)
        self.strict = strict
        self.check_certificates = check_certificates
        self.violations: List[Dict[str, Any]] = []
        self.checked_decisions = 0
        self._endorsed: Set[str] = set()
        self._observed_messages = 0
        #: height -> first honest decision (the canonical value)
        self._canonical: Dict[int, Any] = {}
        self._canonical_meta: Dict[int, Tuple[int, float]] = {}
        self._committed_once: Set[Tuple[int, int]] = set()
        self._harness: Optional[Any] = None

    # -- wiring --------------------------------------------------------------

    def bind(self, harness: Any, byzantine: Iterable[int] = ()) -> None:
        """Attach to a harness; extra Byzantine ids (e.g. the adversary's
        schedule) merge into the exemption set.

        The harness holds the auditor, so the auditor holds it through a
        proxy: a dropped harness is freed by reference counting, and the
        auditor's reports that read it are for a caller that holds it.
        """
        self._harness = weakref.proxy(harness)
        self.byzantine.update(byzantine)

    # -- observation hooks ---------------------------------------------------

    def observe_message(self, sender: int, target: int,
                        message: Any) -> None:
        """Record wire endorsements (called by the harness on every route)."""
        self._observed_messages += 1
        if self.check_certificates:
            self._endorsed.update(_leaf_values(message.payload))

    def observe_decision(self, decision: Any) -> None:
        """Check one commit against the invariants as it happens."""
        self.checked_decisions += 1
        if decision.node in self.byzantine:
            return
        key = (decision.node, decision.height)
        if key in self._committed_once:
            self._record({
                "check": "total_order",
                "height": decision.height,
                "nodes": [decision.node],
                "values": [decision.value],
                "times": [decision.time],
                "detail": f"node {decision.node} committed height"
                          f" {decision.height} twice",
            })
        self._committed_once.add(key)
        canonical = self._canonical.get(decision.height)
        if decision.height not in self._canonical:
            self._canonical[decision.height] = decision.value
            self._canonical_meta[decision.height] = (decision.node,
                                                     decision.time)
        elif canonical != decision.value:
            first_node, first_time = self._canonical_meta[decision.height]
            self._record({
                "check": "agreement",
                "height": decision.height,
                "nodes": [first_node, decision.node],
                "values": [canonical, decision.value],
                "times": [first_time, decision.time],
                "detail": f"height {decision.height}: node {first_node}"
                          f" committed {canonical!r} but node"
                          f" {decision.node} committed {decision.value!r}",
            })
        if (self.check_certificates and self._observed_messages
                and isinstance(decision.value, str)
                and decision.value not in self._endorsed):
            self._record({
                "check": "certificate",
                "height": decision.height,
                "nodes": [decision.node],
                "values": [decision.value],
                "times": [decision.time],
                "detail": f"node {decision.node} committed"
                          f" {decision.value!r} at height {decision.height}"
                          " but no protocol message ever carried it",
            })

    def _record(self, violation: Dict[str, Any]) -> None:
        self.violations.append(violation)
        if self.strict:
            raise SafetyViolationError(
                f"safety violated ({violation['check']}):"
                f" {violation['detail']}", violation=violation)

    # -- verdicts ------------------------------------------------------------

    @property
    def verdict(self) -> str:
        return "violated" if self.violations else "ok"

    def report(self) -> Dict[str, Any]:
        """The forensic report for this run (JSON-friendly)."""
        return {
            "verdict": self.verdict,
            "checked_decisions": self.checked_decisions,
            "byzantine_nodes": sorted(self.byzantine),
            "violations": list(self.violations),
        }

    def forensic_lines(self) -> List[str]:
        """Human-readable one-liners, one per violation."""
        return [f"[{v['check']}] {v['detail']}" for v in self.violations]

    def liveness_grade(self, window: Optional[Tuple[float, float]] = None,
                       until: Optional[float] = None) -> str:
        """Grade honest progress: ``ok`` / ``degraded`` / ``failed``.

        Mirrors the ``LivenessWatchdog`` semantics on the decision log:
        ``failed`` when honest nodes never commit (or never commit again
        after the attack *window* closes, when the run extends past it),
        ``degraded`` when commits pause for the whole window but resume,
        ``ok`` otherwise.
        """
        decisions = [] if self._harness is None else self._harness.decisions
        times = [d.time for d in decisions if d.node not in self.byzantine]
        if not times:
            return "failed"
        if window is None:
            return "ok"
        start, stop = window
        if until is not None and until > stop:
            if not any(t >= stop for t in times):
                return "failed"
        if not any(start <= t < stop for t in times):
            return "degraded"
        return "ok"
