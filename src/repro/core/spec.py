"""The DIABLO workload specification language (§4).

A benchmark configuration names the resources of the test (accounts,
contracts), maps clients to Secondary locations and blockchain endpoints
(the paper's function ``M``), and gives each client a behaviour: an
interaction to perform at a rate schedule. The YAML form is the paper's,
custom tags included:

.. code-block:: yaml

    let:
      - &loc { sample: !location [ "us-east-2" ] }
      - &end { sample: !endpoint [ ".*" ] }
      - &acc { sample: !account { number: 2000 } }
      - &dapp { sample: !contract { name: "dota" } }
    workloads:
      - number: 3
        client:
          location: *loc
          view: *end
          behavior:
            - interaction: !invoke
                from: *acc
                contract: *dapp
                function: "update(1, 1)"
              load:
                0: 4432
                50: 4438
                120: 0

A configuration may instead declare a client **population** — millions of
users simulated as aggregate arrival processes plus a tracked cohort
(see :mod:`repro.core.population` and docs/SCALE.md):

.. code-block:: yaml

    population:
      users: 5_000_000
      rate_per_user: 0.001     # each user averages one tx per ~17 min
      duration: 120
      cohort: 1000             # individually-tracked sample (default)
      arrival: poisson         # or burst / deterministic
      interaction: !transfer
        from: { sample: !account { number: 2000 } }

``population`` and ``workloads`` are mutually exclusive: a population
already says how many users exist, so an explicit client list alongside
it is rejected at parse time.

Specs can equally be built programmatically from the dataclasses below.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple, Union

from repro.common.errors import SpecError
from repro.common.reader import (
    as_written,
    builder_for,
    coerce,
    construct,
    each,
    fail,
    mapping,
    read,
    read_keys,
    read_kwargs,
    untag,
)
from repro.core.population import PopulationSpec
from repro.econ.fees import FeeSpec

if TYPE_CHECKING:  # a section's module is imported when a spec has it
    from repro.sim.byzantine import ByzantineEvent, ByzantineSchedule
    from repro.sim.dos import AdversarySpec
    from repro.sim.faults import FaultEvent, FaultSchedule

# -- samples (the `let:` bindings) --------------------------------------------


@dataclass(frozen=True)
class LocationSample:
    """Secondary locations, by region tag (``!location``)."""

    patterns: Tuple[str, ...]

    def matches(self, region: str) -> bool:
        return any(re.fullmatch(p, region) for p in self.patterns)


@dataclass(frozen=True)
class EndpointSample:
    """Blockchain endpoints, by name regex (``!endpoint``)."""

    patterns: Tuple[str, ...]

    def matches(self, endpoint_name: str) -> bool:
        return any(re.fullmatch(p, endpoint_name) for p in self.patterns)


@dataclass(frozen=True)
class AccountSample:
    """A population of funded accounts (``!account``)."""

    number: int

    def __post_init__(self) -> None:
        if self.number <= 0:
            raise SpecError("account sample needs a positive number")


@dataclass(frozen=True)
class ContractSample:
    """A deployed DApp instance (``!contract``)."""

    name: str


Sample = Union[LocationSample, EndpointSample, AccountSample, ContractSample]

# -- interactions ---------------------------------------------------------------


_CALL_RE = re.compile(r"^\s*(\w+)\s*(?:\((.*)\))?\s*$")


def parse_function_call(call: str) -> Tuple[str, Tuple[Any, ...]]:
    """Parse ``"update(1, 1)"`` into ``("update", (1, 1))``.

    Arguments are YAML scalars (ints, floats, strings).
    """
    import yaml

    match = _CALL_RE.match(call)
    if match is None:
        raise SpecError(f"cannot parse function call {call!r}")
    name, arg_text = match.group(1), match.group(2)
    if not arg_text:
        return name, ()
    args = []
    for chunk in arg_text.split(","):
        chunk = chunk.strip()
        args.append(yaml.safe_load(chunk))
    return name, tuple(args)


@dataclass(frozen=True)
class InvokeSpec:
    """``!invoke``: call a DApp function from a pool of accounts."""

    from_accounts: AccountSample
    contract: ContractSample
    function: str
    args: Tuple[Any, ...] = ()

    @staticmethod
    def from_call(from_accounts: AccountSample, contract: ContractSample,
                  function: str) -> "InvokeSpec":
        name, args = parse_function_call(function)
        return InvokeSpec(from_accounts, contract, name, args)


@dataclass(frozen=True)
class TransferSpec:
    """``!transfer``: native coin transfer between sampled accounts."""

    from_accounts: AccountSample
    amount: int = 1


Interaction = Union[InvokeSpec, TransferSpec]

# -- load schedules -----------------------------------------------------------------


@dataclass(frozen=True)
class LoadSchedule:
    """Piecewise-constant request rate over time.

    ``points`` maps a start time to a rate; the schedule ends at the last
    point (whose rate is conventionally 0, as in the paper's example).
    """

    points: Tuple[Tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.points:
            raise SpecError("load schedule needs at least one point")
        times = [t for t, _ in self.points]
        if times != sorted(times):
            raise SpecError("load schedule times must be increasing")
        if any(rate < 0 for _, rate in self.points):
            raise SpecError("load rates cannot be negative")

    @staticmethod
    def from_mapping(mapping: Dict[float, float]) -> "LoadSchedule":
        return LoadSchedule(tuple(sorted(
            (float(t), float(r)) for t, r in mapping.items())))

    @staticmethod
    def constant(rate: float, duration: float) -> "LoadSchedule":
        return LoadSchedule(((0.0, float(rate)), (float(duration), 0.0)))

    @property
    def duration(self) -> float:
        return self.points[-1][0]

    def rate_at(self, t: float) -> float:
        if t < 0 or t >= self.duration and self.duration > 0:
            return 0.0
        current = 0.0
        for start, rate in self.points:
            if start <= t:
                current = rate
            else:
                break
        return current

    def total_transactions(self) -> float:
        """Integral of the rate over the schedule."""
        total = 0.0
        for (t0, rate), (t1, _) in zip(self.points, self.points[1:]):
            total += rate * (t1 - t0)
        return total

    def scaled(self, factor: float) -> "LoadSchedule":
        """Scale every rate (used by the experiment scale transform)."""
        return LoadSchedule(tuple((t, r * factor) for t, r in self.points))


# -- client behaviours and workloads ---------------------------------------------------


@dataclass(frozen=True)
class Behavior:
    """One interaction performed at a load schedule."""

    interaction: Interaction
    load: LoadSchedule


@dataclass(frozen=True)
class ClientSpec:
    """Where a client runs, which endpoints it sees, and what it does."""

    location: LocationSample
    view: EndpointSample
    behaviors: Tuple[Behavior, ...]


@dataclass(frozen=True)
class WorkloadGroup:
    """``number`` identical clients sharing a ClientSpec."""

    number: int
    client: ClientSpec

    def __post_init__(self) -> None:
        if self.number <= 0:
            raise SpecError("workload group needs a positive client count")


@dataclass(frozen=True)
class WorkloadSpec:
    """A complete benchmark configuration, a field per top-level section
    (docs/ARCHITECTURE.md, "Workload spec sections", lists every key).

    ``faults`` (:mod:`repro.sim.faults`) and ``byzantine``
    (:mod:`repro.sim.byzantine`) are timed events that compose; each
    non-empty one is validated and built into its schedule once, here.
    ``deadline`` caps the simulated seconds (load plus drain); a run cut
    short by it is marked ``failed``. ``fees`` and ``adversary`` (which
    brings the chain's default fee market when ``fees`` is absent) are
    None when absent, and a None stays out of the pipeline, so benign runs
    are byte-identical. ``population`` replaces ``workloads`` with an
    aggregate of users; the two are mutually exclusive.
    """

    workloads: Tuple[WorkloadGroup, ...] = ()
    faults: Tuple[FaultEvent, ...] = ()
    byzantine: Tuple[ByzantineEvent, ...] = ()
    deadline: Optional[float] = None
    fees: Optional[FeeSpec] = None
    adversary: Optional[AdversarySpec] = None
    population: Optional[PopulationSpec] = None

    def __post_init__(self) -> None:
        if self.population is not None and self.workloads:
            raise SpecError(
                "a spec cannot declare both 'population' (aggregate users)"
                " and 'workloads' (explicit client lists) — the population's"
                " user count already determines the clients")
        if not self.workloads and self.population is None:
            raise SpecError("a workload spec needs at least one workload")
        if self.deadline is not None and self.deadline <= 0:
            raise SpecError(f"deadline must be positive: {self.deadline}")
        if self.fees is not None and not self.fees.enabled:
            # `enabled: false` is the spec without a fees section, which
            # keeps the run byte-identical to one that never had it
            object.__setattr__(self, "fees", None)
        # built here, so a bad event fails at parse time
        object.__setattr__(self, "_fault_schedule", None)
        object.__setattr__(self, "_byzantine_schedule", None)
        if self.faults:
            from repro.sim.faults import FaultSchedule
            object.__setattr__(self, "_fault_schedule", construct(
                FaultSchedule, "faults", self.faults))
        if self.byzantine:
            from repro.sim.byzantine import ByzantineSchedule
            object.__setattr__(self, "_byzantine_schedule", construct(
                ByzantineSchedule, "byzantine", self.byzantine))

    def fault_schedule(self) -> FaultSchedule:
        """The fault events as a validated, time-ordered schedule."""
        if self._fault_schedule is None:
            from repro.sim.faults import FaultSchedule
            return FaultSchedule()
        return self._fault_schedule

    def byzantine_schedule(self) -> ByzantineSchedule:
        """The byzantine events as a validated, time-ordered schedule."""
        if self._byzantine_schedule is None:
            from repro.sim.byzantine import ByzantineSchedule
            return ByzantineSchedule()
        return self._byzantine_schedule

    def client_groups(self) -> Tuple[WorkloadGroup, ...]:
        """The workload groups the Primary dispatches clients from.

        For an explicit spec this is ``workloads`` verbatim. For a
        population it is the synthesized **cohort** group: ``cohort_size``
        ordinary clients each carrying the population's per-user schedule,
        so the tracked sample runs through the classic client path
        unchanged (and a cohort covering every user is byte-identical to
        an equivalent explicit spec). The aggregate lane is attached by
        the Primary separately — it has no client objects.
        """
        if self.population is None:
            return self.workloads
        pop = self.population
        cohort = WorkloadGroup(
            number=pop.cohort_size,
            client=ClientSpec(
                location=LocationSample((pop.location,)),
                view=EndpointSample((pop.view,)),
                behaviors=(Behavior(pop.interaction, pop.load),)))
        return (cohort,)

    @property
    def duration(self) -> float:
        durations = [behavior.load.duration
                     for group in self.workloads
                     for behavior in group.client.behaviors]
        if self.population is not None:
            durations.append(self.population.duration)
        return max(durations)

    def account_population(self) -> int:
        """Largest account sample any behaviour draws from."""
        sizes = [0]
        for group in self.workloads:
            for behavior in group.client.behaviors:
                interaction = behavior.interaction
                sizes.append(interaction.from_accounts.number)
        if self.population is not None:
            sizes.append(self.population.interaction.from_accounts.number)
        return max(sizes)

    def contracts_used(self) -> List[str]:
        names = []
        interactions = [behavior.interaction
                        for group in self.workloads
                        for behavior in group.client.behaviors]
        if self.population is not None:
            interactions.append(self.population.interaction)
        for interaction in interactions:
            if isinstance(interaction, InvokeSpec):
                name = interaction.contract.name
                if name not in names:
                    names.append(name)
        return names

    def offered_load(self) -> float:
        """Aggregate average offered rate in TPS."""
        total_tx = sum(group.number * behavior.load.total_transactions()
                       for group in self.workloads
                       for behavior in group.client.behaviors)
        if self.population is not None:
            total_tx += (self.population.users
                         * self.population.load.total_transactions())
        duration = self.duration
        return total_tx / duration if duration > 0 else 0.0


# -- YAML loading -----------------------------------------------------------------------


def spec_document(text: str) -> Any:
    """*text* parsed as YAML, each ``!kind`` node a mapping holding the tag
    under ``__kind__`` (a sequence's items under ``patterns``), read
    where it is used."""
    import yaml

    class Loader(yaml.SafeLoader):
        """SafeLoader plus the DIABLO custom tags."""

    def tagged(loader: yaml.Loader, kind: str,
               node: yaml.Node) -> Dict[str, Any]:
        if isinstance(node, yaml.SequenceNode):
            return {"__kind__": kind,
                    "patterns": loader.construct_sequence(node)}
        return {"__kind__": kind,
                **loader.construct_mapping(node, deep=True)}

    Loader.add_multi_constructor("!", tagged)
    return yaml.load(text, Loader=Loader)


def _sample(kind: str, cls: type):
    """Builder of a sample: ``{sample: !<kind> ...}``, the bare tag, or a
    sample built in code."""
    def build(raw: Any, path: str) -> Any:
        if isinstance(raw, dict) and "__kind__" not in raw:
            raw = read_keys(raw, path, {"sample": as_written}, {})["sample"]
            path = f"{path}.sample"
        if isinstance(raw, cls):
            return raw
        return read(cls, untag(raw, path, {kind: cls})[1], path)
    return build


def _interaction(raw: Any, path: str) -> Interaction:
    cls, fields = untag(raw, path, {"invoke": InvokeSpec,
                                    "transfer": TransferSpec})
    kwargs = read_kwargs(
        cls, fields, path, alias={"from_accounts": "from"}, omit=("args",),
        build={"from_accounts": _sample("account", AccountSample),
               "contract": _sample("contract", ContractSample)})
    factory = InvokeSpec.from_call if cls is InvokeSpec else cls
    return construct(factory, path, **kwargs)


def _load(raw: Any, path: str) -> LoadSchedule:
    """A ``{time: rate}`` schedule."""
    number = builder_for("float")
    points = {coerce(number, t, f"{path}.{t}"):
              coerce(number, r, f"{path}.{t}")
              for t, r in mapping(raw, path).items()}
    return construct(LoadSchedule.from_mapping, path, points)


_CLIENT = partial(
    read, ClientSpec, alias={"behaviors": "behavior"},
    build={"location": _sample("location", LocationSample),
           "view": _sample("endpoint", EndpointSample),
           "behaviors": each(partial(read, Behavior, build={
               "interaction": _interaction, "load": _load}))})


def _group(raw: Any, path: str) -> WorkloadGroup:
    """A workload group; ``number`` defaults to one client."""
    return read(WorkloadGroup, {"number": 1, **mapping(raw, path)}, path,
                build={"client": _CLIENT})


def population_from_dict(raw: Any, path: str = "population"
                         ) -> PopulationSpec:
    """Build a PopulationSpec from a parsed ``population:`` section.

    The rate profile comes either from an explicit per-user ``load``
    schedule (same mapping form as client behaviours) or the
    ``rate_per_user`` + ``duration`` constant-rate shorthand — exactly
    one of the two.
    """
    kwargs = read_kwargs(PopulationSpec, raw, path, omit=("load",),
                         build={"interaction": _interaction},
                         extra={"load": _load, "rate_per_user": "float",
                                "duration": "float"})
    shorthand = [kwargs.pop(key) for key in ("rate_per_user", "duration")
                 if key in kwargs]
    if len(shorthand) != (0 if "load" in kwargs else 2):
        fail(path, "needs one per-user rate profile: a 'load' schedule, or"
             " 'rate_per_user' and 'duration' together, not both")
    if shorthand:
        kwargs["load"] = LoadSchedule.constant(*shorthand)
    return construct(PopulationSpec, path, **kwargs)


def _faults(raw: Any, path: str) -> Tuple[FaultEvent, ...]:
    from repro.sim.faults import events_from_dicts
    return events_from_dicts(raw, path)


def _byzantine(raw: Any, path: str) -> Tuple[ByzantineEvent, ...]:
    from repro.sim.byzantine import byzantine_events_from_dicts
    return byzantine_events_from_dicts(raw, path)


def _adversary(raw: Any, path: str) -> AdversarySpec:
    from repro.sim.dos import AdversarySpec
    return read(AdversarySpec, raw, path)


def spec_from_dict(document: Dict[str, Any]) -> WorkloadSpec:
    """Build a WorkloadSpec from a parsed configuration document (whose
    ``let:`` list only holds the YAML anchors the sections refer to)."""
    kwargs = read_kwargs(WorkloadSpec, document, "", extra={"let": as_written},
                         build={"workloads": each(_group),
                                "faults": _faults,
                                "byzantine": _byzantine,
                                "fees": FeeSpec.from_dict,
                                "adversary": _adversary,
                                "population": population_from_dict})
    kwargs.pop("let", None)
    return construct(WorkloadSpec, "", **kwargs)


def load_spec(text: str) -> WorkloadSpec:
    """Parse a YAML benchmark configuration into a WorkloadSpec."""
    return spec_from_dict(spec_document(text))


def simple_spec(interaction: Interaction, load: LoadSchedule,
                clients: int = 1, location: str = ".*",
                view: str = ".*",
                faults: Tuple[FaultEvent, ...] = (),
                byzantine: Tuple[ByzantineEvent, ...] = (),
                deadline: Optional[float] = None,
                fees: Optional[FeeSpec] = None,
                adversary: Optional[AdversarySpec] = None) -> WorkloadSpec:
    """Programmatic shorthand: one workload group, one behaviour."""
    return WorkloadSpec((WorkloadGroup(
        number=clients,
        client=ClientSpec(
            location=LocationSample((location,)),
            view=EndpointSample((view,)),
            behaviors=(Behavior(interaction, load),))),),
        faults=faults, byzantine=byzantine, deadline=deadline,
        fees=fees, adversary=adversary)


def simple_population_spec(users: int, interaction: Interaction,
                           rate_per_user: float, duration: float,
                           cohort: Optional[int] = None,
                           arrival: str = "poisson",
                           location: str = ".*", view: str = ".*",
                           deadline: Optional[float] = None,
                           fees: Optional[FeeSpec] = None) -> WorkloadSpec:
    """Programmatic shorthand: one population at a constant per-user rate."""
    return WorkloadSpec((), deadline=deadline, fees=fees,
                        population=PopulationSpec(
                            users=users, interaction=interaction,
                            load=LoadSchedule.constant(rate_per_user,
                                                       duration),
                            cohort=cohort, arrival=arrival,
                            location=location, view=view))
