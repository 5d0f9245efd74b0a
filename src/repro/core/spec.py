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
from typing import Any, Dict, List, Optional, Tuple, Union

import yaml

from repro.common.errors import SpecError
from repro.core.population import PopulationSpec
from repro.econ.fees import FeeSpec
from repro.sim.byzantine import (
    ByzantineEvent,
    ByzantineSchedule,
    byzantine_events_from_dicts,
)
from repro.sim.dos import AdversarySpec
from repro.sim.faults import FaultEvent, FaultSchedule, events_from_dicts

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
                  call: str) -> "InvokeSpec":
        name, args = parse_function_call(call)
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
    """A complete benchmark configuration.

    ``faults`` is an optional schedule of timed fault events (node crashes
    and recoveries, partitions, region outages, link degradation) applied
    to the chain's validators while the workload runs — see
    :mod:`repro.sim.faults` for the event vocabulary and the YAML syntax.

    ``byzantine`` is an optional schedule of adversarial misbehaviour
    windows (equivocation, vote withholding, delay/reorder, leader
    censorship) declared per validator — see :mod:`repro.sim.byzantine`.
    It composes with ``faults``: both sections may appear in one spec.

    ``deadline`` is an optional cap on total simulated seconds (load plus
    drain): a run that would outlive it is cut short and marked ``failed``
    — the guard against overloaded chains that never drain.

    ``fees`` activates the chain's fee market (dialect and overrides —
    see :class:`repro.econ.fees.FeeSpec`); ``adversary`` adds a
    budget-constrained DoS attacker bidding for blockspace on top of it
    (see :class:`repro.sim.dos.AdversarySpec`; an adversary without a
    ``fees`` section gets the chain's default fee market). Both are None
    when their sections are absent, and a None stays entirely out of the
    pipeline — benign runs are byte-identical to a spec class without
    these fields.

    ``population`` replaces the explicit client list with an aggregate
    population (:class:`repro.core.population.PopulationSpec`): a user
    count with a per-user rate profile, simulated as arrival processes
    plus a tracked cohort. It is mutually exclusive with ``workloads`` —
    a population already determines how many users exist.
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
        # validate eagerly so a bad schedule fails at parse time
        FaultSchedule(self.faults)
        ByzantineSchedule(self.byzantine)

    def fault_schedule(self) -> FaultSchedule:
        """The fault events as a validated, time-ordered schedule."""
        return FaultSchedule(self.faults)

    def byzantine_schedule(self) -> ByzantineSchedule:
        """The byzantine events as a validated, time-ordered schedule."""
        return ByzantineSchedule(self.byzantine)

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


class _SpecLoader(yaml.SafeLoader):
    """SafeLoader plus the DIABLO custom tags."""


def _location(loader: yaml.Loader, node: yaml.Node) -> LocationSample:
    return LocationSample(tuple(loader.construct_sequence(node)))


def _endpoint(loader: yaml.Loader, node: yaml.Node) -> EndpointSample:
    return EndpointSample(tuple(loader.construct_sequence(node)))


def _account(loader: yaml.Loader, node: yaml.Node) -> AccountSample:
    mapping = loader.construct_mapping(node)
    return AccountSample(int(mapping["number"]))


def _contract(loader: yaml.Loader, node: yaml.Node) -> ContractSample:
    mapping = loader.construct_mapping(node)
    return ContractSample(str(mapping["name"]))


def _invoke(loader: yaml.Loader, node: yaml.Node) -> Dict[str, Any]:
    mapping = loader.construct_mapping(node, deep=True)
    mapping["__kind__"] = "invoke"
    return mapping


def _transfer(loader: yaml.Loader, node: yaml.Node) -> Dict[str, Any]:
    mapping = loader.construct_mapping(node, deep=True)
    mapping["__kind__"] = "transfer"
    return mapping


_SpecLoader.add_constructor("!location", _location)
_SpecLoader.add_constructor("!endpoint", _endpoint)
_SpecLoader.add_constructor("!account", _account)
_SpecLoader.add_constructor("!contract", _contract)
_SpecLoader.add_constructor("!invoke", _invoke)
_SpecLoader.add_constructor("!transfer", _transfer)


def _resolve_sample(value: Any, expected: type, what: str) -> Any:
    """Unwrap a `{sample: <tag>}` binding or accept the sample directly."""
    if isinstance(value, dict) and "sample" in value:
        value = value["sample"]
    if not isinstance(value, expected):
        raise SpecError(f"{what}: expected {expected.__name__},"
                        f" got {type(value).__name__}")
    return value


def _build_interaction(raw: Any) -> Interaction:
    if not isinstance(raw, dict) or "__kind__" not in raw:
        raise SpecError(f"behavior interaction must be !invoke or !transfer,"
                        f" got {raw!r}")
    kind = raw["__kind__"]
    accounts = _resolve_sample(raw.get("from"), AccountSample, "from")
    if kind == "transfer":
        return TransferSpec(accounts, int(raw.get("amount", 1)))
    contract = _resolve_sample(raw.get("contract"), ContractSample, "contract")
    return InvokeSpec.from_call(accounts, contract, str(raw["function"]))


_POPULATION_KEYS = frozenset({
    "users", "cohort", "interaction", "load", "rate_per_user", "duration",
    "arrival", "burst_factor", "burst_fraction", "burst_length",
    "location", "view"})


def population_from_dict(raw: Any) -> PopulationSpec:
    """Build a PopulationSpec from a parsed ``population:`` section.

    The rate profile comes either from an explicit per-user ``load``
    schedule (same mapping form as client behaviours) or the
    ``rate_per_user`` + ``duration`` constant-rate shorthand — exactly
    one of the two.
    """
    if not isinstance(raw, dict):
        raise SpecError("'population' must be a mapping")
    unknown = set(raw) - _POPULATION_KEYS
    if unknown:
        raise SpecError(
            f"unknown population keys: {', '.join(sorted(unknown))}")
    if "users" not in raw:
        raise SpecError("'population' needs a 'users' count")
    if "interaction" not in raw:
        raise SpecError("'population' needs an 'interaction'"
                        " (!transfer or !invoke)")
    interaction = _build_interaction(raw["interaction"])
    has_load = "load" in raw
    has_shorthand = "rate_per_user" in raw or "duration" in raw
    if has_load and has_shorthand:
        raise SpecError("'population' takes either a 'load' schedule or"
                        " 'rate_per_user' + 'duration', not both")
    if has_load:
        load = LoadSchedule.from_mapping(raw["load"])
    elif "rate_per_user" in raw and "duration" in raw:
        load = LoadSchedule.constant(float(raw["rate_per_user"]),
                                     float(raw["duration"]))
    else:
        raise SpecError("'population' needs a per-user rate profile:"
                        " a 'load' schedule, or 'rate_per_user' and"
                        " 'duration' together")
    kwargs: Dict[str, Any] = {}
    if raw.get("cohort") is not None:
        kwargs["cohort"] = int(raw["cohort"])
    if "arrival" in raw:
        kwargs["arrival"] = str(raw["arrival"])
    for key in ("burst_factor", "burst_fraction", "burst_length"):
        if key in raw:
            kwargs[key] = float(raw[key])
    for key in ("location", "view"):
        if key in raw:
            kwargs[key] = str(raw[key])
    return PopulationSpec(users=int(raw["users"]), interaction=interaction,
                          load=load, **kwargs)


def spec_from_dict(document: Dict[str, Any]) -> WorkloadSpec:
    """Build a WorkloadSpec from a parsed configuration document."""
    if not isinstance(document, dict):
        raise SpecError("configuration needs a top-level 'workloads' list")
    raw_population = document.get("population")
    population = (population_from_dict(raw_population)
                  if raw_population is not None else None)
    raw_groups = document.get("workloads")
    if raw_groups is None:
        if population is None:
            raise SpecError(
                "configuration needs a top-level 'workloads' list")
        raw_groups = ()
    groups: List[WorkloadGroup] = []
    for raw_group in raw_groups:
        raw_client = raw_group["client"]
        location = _resolve_sample(raw_client.get("location"),
                                   LocationSample, "client.location")
        view = _resolve_sample(raw_client.get("view"),
                               EndpointSample, "client.view")
        behaviors = []
        for raw_behavior in raw_client["behavior"]:
            interaction = _build_interaction(raw_behavior["interaction"])
            load = LoadSchedule.from_mapping(raw_behavior["load"])
            behaviors.append(Behavior(interaction, load))
        groups.append(WorkloadGroup(
            number=int(raw_group.get("number", 1)),
            client=ClientSpec(location, view, tuple(behaviors))))
    raw_faults = document.get("faults", ())
    if raw_faults and not isinstance(raw_faults, (list, tuple)):
        raise SpecError("'faults' must be a list of fault events")
    faults = events_from_dicts(raw_faults) if raw_faults else ()
    raw_byzantine = document.get("byzantine", ())
    if raw_byzantine and not isinstance(raw_byzantine, (list, tuple)):
        raise SpecError("'byzantine' must be a list of byzantine events")
    byzantine = (byzantine_events_from_dicts(raw_byzantine)
                 if raw_byzantine else ())
    raw_deadline = document.get("deadline")
    if raw_deadline is not None:
        try:
            raw_deadline = float(raw_deadline)
        except (TypeError, ValueError):
            raise SpecError(
                f"'deadline' must be a number, got {raw_deadline!r}") from None
    raw_fees = document.get("fees")
    fees = FeeSpec.from_dict(raw_fees) if raw_fees is not None else None
    if fees is not None and not fees.enabled:
        # `enabled: false` normalizes to the same spec as an absent
        # section, preserving the byte-identity contract
        fees = None
    raw_adversary = document.get("adversary")
    adversary = (AdversarySpec.from_dict(raw_adversary)
                 if raw_adversary is not None else None)
    return WorkloadSpec(tuple(groups), faults=faults, byzantine=byzantine,
                        deadline=raw_deadline, fees=fees, adversary=adversary,
                        population=population)


def load_spec(text: str) -> WorkloadSpec:
    """Parse a YAML benchmark configuration into a WorkloadSpec."""
    document = yaml.load(text, Loader=_SpecLoader)
    if document is None:
        raise SpecError("empty specification document")
    return spec_from_dict(document)


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
