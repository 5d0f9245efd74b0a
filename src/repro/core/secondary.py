"""DIABLO Secondaries: distributed load generators (§4).

"Secondaries are responsible for the pre-signing of the transactions and
the execution of the workload, interacting directly with blockchain nodes."
Each Secondary is tagged with a location and submits to its collocated
blockchain nodes; its explicit worker threads mimic individual clients.

In the simulation a Secondary schedules submission events on the engine at
the exact times the workload's load schedule dictates (virtual-time load
generation — the reproduction is never bottlenecked by the generator, see
DESIGN.md). It records the submission timestamp right before triggering,
like the real implementation.

Every lane runs the same tick loop: ask a scheduler how many interactions
are due, encode them in one ``encode_batch`` and trigger them in one
``trigger_batch``. A classic client assignment is scheduled by its
per-client rate; population workloads add an **aggregate lane** whose
:class:`~repro.core.population.AggregateArrivals` process decides how many
of the population's untracked users transact each tick — no per-client
objects, so millions of users cost one event per tick (see docs/SCALE.md).
Nobody reads an aggregate transaction the node rejects, so that lane asks
admission first: when the connector can tell how many of the tick's count
the node would take, the lane encodes only those and triggers the rest as
a number (docs/ARCHITECTURE.md, "Asking admission first"); the signing
cost of a tick then follows what is admitted, not what is offered.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from repro.core.interface import Client

if TYPE_CHECKING:
    from repro.blockchains.base import ExperimentScale
    from repro.chain.transaction import Transaction
    from repro.core.interface import BlockchainConnector
    from repro.core.population import AggregateArrivals
    from repro.core.spec import Behavior, Interaction
    from repro.sim.engine import Engine

DEFAULT_TICK = 0.1


@dataclass(slots=True)
class Assignment:
    """A behaviour executed by a set of clients on one Secondary."""

    clients: List[Client]
    behavior: Behavior


class Secondary:
    """One load-generating machine."""

    def __init__(self, name: str, region: str, engine: Engine,
                 connector: BlockchainConnector,
                 scale: ExperimentScale, tick: float = DEFAULT_TICK) -> None:
        self.name = name
        self.region = region
        self.engine = engine
        self.connector = connector
        self.scale = scale
        self.tick = tick
        self.assignments: List[Assignment] = []
        #: the per-client lane's log, one ``(transactions, clients)``
        #: entry per tick that emitted anything: the two lists the tick
        #: encoded and triggered. ``Primary`` takes it when it aggregates,
        #: so a transaction nothing else holds is freed then
        self.sent: List[Tuple[List[Transaction], List[Client]]] = []
        self.rejected = 0
        self.late_warnings = 0
        # the aggregate lane (population workloads): arrival processes
        # with no client objects behind them
        self.aggregates: List[Tuple[AggregateArrivals, Interaction]] = []
        #: the aggregate lane's built transactions; what the node turned
        #: away unbuilt is ``BlockchainNetwork.dropped_unbuilt``
        self.aggregate_sent: List[Transaction] = []

    def assign(self, clients: List[Client], behavior: Behavior) -> None:
        if clients:
            self.assignments.append(Assignment(list(clients), behavior))

    def assign_aggregate(self, process: AggregateArrivals,
                         interaction: Interaction) -> None:
        """Attach an aggregate arrival process (a population's untracked
        users) to this Secondary's emission schedule."""
        self.aggregates.append((process, interaction))

    # -- execution -----------------------------------------------------------------

    def start(self) -> None:
        """Schedule this Secondary's whole workload on the engine."""
        for assignment in self.assignments:
            self._start_assignment(assignment)
        for process, interaction in self.aggregates:
            self._start_aggregate(process, interaction)

    def _start_assignment(self, assignment: Assignment) -> None:
        """Per-client rate lane: a carry accumulator turns the schedule's
        rate into whole transactions, logged in ``sent`` with the
        clients that triggered them."""
        behavior = assignment.behavior
        nclients = len(assignment.clients)
        rate_at = behavior.load.rate_at
        rate_scale = self.scale.rate
        tick = self.tick
        carry = 0.0

        def due(t: float) -> int:
            nonlocal carry
            # per-client rate times client count, scaled for the experiment
            carry += rate_scale(rate_at(t) * nclients) * tick
            count = int(carry)
            carry -= count
            return count

        def record(txs: List[Transaction], clients: List[Client],
                   accepted: int) -> None:
            self.sent.append((txs, clients))
            self.rejected += len(txs) - accepted

        self._start_lane(f"{self.name}-", behavior.load.duration,
                         behavior.interaction, assignment.clients,
                         due, record)

    def _start_aggregate(self, process: AggregateArrivals,
                         interaction: Interaction) -> None:
        """Aggregate arrivals lane: the process says how many of its users
        transact (exactly one :meth:`AggregateArrivals.count_at` call per
        tick — the determinism contract). The transactions land in
        ``aggregate_sent``, not ``sent``: they trigger under one
        placeholder client and never become TransactionRecords. Nobody
        reads a rejected one, so a connector that can tell how many the
        node would admit (``admission_room``) has the lane build only
        those; any other connector builds them all."""

        def record(txs: List[Transaction], clients: List[Client],
                   accepted: int) -> None:
            self.aggregate_sent.extend(txs)

        self._start_lane(f"{self.name}-aggregate-", process.duration,
                         interaction, [Client("population", self.region, ())],
                         process.count_at, record,
                         getattr(self.connector, "admission_room", None))

    def _start_lane(self, label: str, duration: float,
                    interaction: Interaction, clients: List[Client],
                    due: Callable[[float], int],
                    record: Callable[[List[Transaction], List[Client], int],
                                     None],
                    room: Optional[Callable[[Interaction, int],
                                            Optional[int]]] = None) -> None:
        """The tick loop: every ``tick`` seconds until *duration*, emit the
        ``due(t)`` interactions in one encode_batch and one trigger_batch,
        handing them to *clients* round-robin.

        With *room*, the lane first asks how many of the tick's count the
        node would admit and, unless the answer is None, encodes only
        that prefix; ``trigger_aggregate`` gets the rest as a number."""
        emit_label = label + "emit"
        nclients = len(clients)
        connector = self.connector
        engine = self.engine
        tick = self.tick
        late_after = 5 * tick
        ticks = duration / tick
        whole = math.floor(ticks)
        if 0.0 < ticks - whole < 1e-9:
            # a duration less than 1e-9 ticks past the whole-th tick is float
            # noise on whole ticks: end midway through that tick, so that
            # the lane emits exactly whole ticks however t rounds
            duration = (whole - 0.5) * tick
        t = 0.0
        cursor = 0

        def emit() -> None:
            nonlocal t, cursor
            if t >= duration:
                return
            count = due(t)
            now = engine.now
            if now - t > late_after:
                # the real Secondary warns when it falls behind the
                # Primary's demanded schedule; virtual time cannot fall
                # behind, but the check is kept for interface parity
                self.late_warnings += 1
            if count:
                built = count
                if room is not None:
                    admitted = room(interaction, count)
                    if admitted is not None:
                        built = admitted
                batch = [clients[(cursor + i) % nclients]
                         for i in range(built)]
                cursor += count
                txs = connector.encode_batch(interaction, None, now, built)
                if built < count:
                    accepted = connector.trigger_aggregate(
                        txs, interaction, count - built)
                else:
                    accepted = connector.trigger_batch(batch, txs)
                record(txs, batch, accepted)
            t += tick
            if t < duration:
                engine.schedule_after(tick, lane(), label=emit_label)

        # the loop reaches itself through a weak reference (alive while it
        # runs, as the engine holds it): a closure naming itself would be a
        # cycle holding the whole run
        lane = weakref.ref(emit)
        engine.schedule_after(0.0, emit, label=label + "start")
