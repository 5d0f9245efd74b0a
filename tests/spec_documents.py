"""Legal workload and sweep documents that cover every spec section.

Each document comes with the spec it parses to, built by hand from the
section dataclasses. The spec tests mutate these documents; the docs test
probes each section of them for the keys the reader accepts. Float keys
are written with a decimal point and int keys without one, so a value's
YAML type is its key's type; a fault node key is an index or a name.

The scenario specs under ``examples/specs/`` are documents too, read from
their files, so the specs users run are held to the same reader.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Dict, NamedTuple, Tuple

import yaml

from repro.core.population import PopulationSpec
from repro.core.spec import (
    AccountSample,
    Behavior,
    ClientSpec,
    ContractSample,
    EndpointSample,
    InvokeSpec,
    LoadSchedule,
    LocationSample,
    TransferSpec,
    WorkloadGroup,
    WorkloadSpec,
    simple_population_spec,
    simple_spec,
    spec_document,
    spec_from_dict,
)
from repro.econ.fees import FeeSpec
from repro.sim.byzantine import CensorLeader, DelayReorder, Equivocate, Silence
from repro.sim.dos import AdversarySpec
from repro.sim.faults import (
    Heal,
    LinkDegrade,
    NodeCrash,
    NodeRecover,
    Partition,
    RegionOutage,
)
from repro.sweep import CellOptions, SweepSpec, sweep_from_dict


class Document(NamedTuple):
    text: str
    parse: Callable[[Any], Any]     # parsed YAML tree -> spec
    load: Callable[[str], Any]      # YAML text -> parsed tree
    expected: Any

    def tree(self) -> Any:
        """A fresh parsed tree that shares no node (YAML anchors do), so
        a change to it lands in one place only."""
        return _unshared(self.load(self.text))


def _unshared(tree: Any) -> Any:
    if isinstance(tree, dict):
        return {key: _unshared(value) for key, value in tree.items()}
    if isinstance(tree, list):
        return [_unshared(item) for item in tree]
    return tree


def spelled(path: Tuple[Any, ...]) -> str:
    """A tree path as the reader spells it: ``faults[1].extra_latency``."""
    text = ""
    for step in path:
        text += f"[{step}]" if isinstance(step, int) else (
            f".{step}" if text else str(step))
    return text


DUAL = Document("""
let:
  - &acc { sample: !account { number: 100 } }
workloads:
  - number: 2
    client:
      location: { sample: !location [ ".*" ] }
      view: { sample: !endpoint [ ".*" ] }
      behavior:
        - interaction: !transfer
            from: *acc
            amount: 3
          load: { 0: 10, 30: 0 }
        - interaction: !invoke
            from: { sample: !account { number: 50 } }
            contract: { sample: !contract { name: dota } }
            function: "update(1, 1)"
          load: { 0: 5, 30: 0 }
faults:
  - { at: 5.0, kind: crash, nodes: [node-0, node-1] }
  - { at: 10.0, kind: recover, node: node-0 }
  - { at: 12.0, kind: partition, groups: [[node-0, node-1], [node-2]] }
  - { at: 15.0, kind: heal }
  - { at: 16.0, kind: region_outage, region: tokyo, duration: 4.0 }
  - { at: 18.0, kind: link_degrade, src: ohio, dst: tokyo,
      extra_latency: 0.2, drop_rate: 0.1 }
byzantine:
  - { start: 1.0, stop: 3.0, kind: equivocate, node: 0 }
  - { start: 1.0, stop: 3.0, kind: silence, nodes: [1, 2] }
  - { start: 2.0, stop: 4.0, kind: delay_reorder, node: 3,
      min_delay: 0.1, max_delay: 0.4 }
  - { start: 0.0, stop: 5.0, kind: censor_leader, node: 1 }
deadline: 600.0
fees: { enabled: true, dialect: eip1559, base_fee: 5, fee_bump: 1.5,
        fee_bump_cap: 4.0, retry_attempts: 3 }
adversary: { budget: 1000000, rate: 100.0, start: 5.0, stop: 25.0,
             bid_multiplier: 2.0, senders: 4, gas_limit: 21000 }
""", spec_from_dict, spec_document, WorkloadSpec(
    workloads=(WorkloadGroup(2, ClientSpec(
        LocationSample((".*",)), EndpointSample((".*",)), (
            Behavior(TransferSpec(AccountSample(100), 3),
                     LoadSchedule(((0.0, 10.0), (30.0, 0.0)))),
            Behavior(InvokeSpec(AccountSample(50), ContractSample("dota"),
                                "update", (1, 1)),
                     LoadSchedule(((0.0, 5.0), (30.0, 0.0))))))),),
    faults=(NodeCrash(5.0, "node-0"), NodeCrash(5.0, "node-1"),
            NodeRecover(10.0, "node-0"),
            Partition(12.0, (("node-0", "node-1"), ("node-2",))),
            Heal(15.0), RegionOutage(16.0, "tokyo", 4.0),
            LinkDegrade(18.0, "ohio", "tokyo", 0.2, 0.1)),
    byzantine=(Equivocate(1.0, 3.0, 0), Silence(1.0, 3.0, 1),
               Silence(1.0, 3.0, 2), DelayReorder(2.0, 4.0, 3, 0.1, 0.4),
               CensorLeader(0.0, 5.0, 1)),
    deadline=600.0,
    fees=FeeSpec(dialect="eip1559", base_fee=5, fee_bump=1.5,
                 fee_bump_cap=4.0, retry_attempts=3),
    adversary=AdversarySpec(budget=1_000_000, rate=100.0, start=5.0,
                            stop=25.0, bid_multiplier=2.0, senders=4,
                            gas_limit=21_000)))

POPULATION_RATE = Document("""
population:
  users: 50000
  rate_per_user: 0.001
  duration: 60.0
  cohort: 500
  arrival: burst
  burst_factor: 4.0
  burst_fraction: 0.1
  burst_length: 2.0
  location: ".*"
  view: ".*"
  interaction: !transfer
    from: { sample: !account { number: 100 } }
""", spec_from_dict, spec_document, WorkloadSpec(
    population=PopulationSpec(
        users=50_000, interaction=TransferSpec(AccountSample(100)),
        load=LoadSchedule.constant(0.001, 60.0), cohort=500,
        arrival="burst", burst_factor=4.0, burst_fraction=0.1,
        burst_length=2.0)))

POPULATION_LOAD = Document("""
population:
  users: 2000
  load: { 0: 0.01, 60: 0 }
  interaction: !invoke
    from: { sample: !account { number: 100 } }
    contract: { sample: !contract { name: dota } }
    function: "update(1, 1)"
deadline: 300.0
""", spec_from_dict, spec_document, WorkloadSpec(
    deadline=300.0,
    population=PopulationSpec(
        users=2_000,
        interaction=InvokeSpec(AccountSample(100), ContractSample("dota"),
                               "update", (1, 1)),
        load=LoadSchedule(((0.0, 0.01), (60.0, 0.0))))))

SWEEP = Document("""
sweep:
  chains: [quorum, solana]
  configurations: [testnet]
  workloads: [native-100]
  seeds: [1, 2]
  scales: [0.05]
  populations: [1000, null]
options:
  accounts: 500
  clients: 2
  drain: 60.0
  max_sim_seconds: 900.0
  watchdog_window: 20.0
  cohort: 100
  rate_per_user: 0.002
""", sweep_from_dict, yaml.safe_load, SweepSpec(
    chains=("quorum", "solana"), configurations=("testnet",),
    workloads=("native-100",), seeds=(1, 2), scales=(0.05,),
    populations=(1000, None),
    options=CellOptions(accounts=500, clients=2, drain=60.0,
                        max_sim_seconds=900.0, watchdog_window=20.0,
                        cohort=100, rate_per_user=0.002)))

SCENARIOS = Path(__file__).resolve().parents[1] / "examples" / "specs"


def _scenario(name: str, rate: float, duration: float,
              interaction: Any = TransferSpec(AccountSample(2_000)),
              **sections: Any) -> Document:
    """``examples/specs/<name>.yaml``: one client running *interaction*
    (by default, transferring from 2 000 accounts) at *rate* for
    *duration*, plus *sections*."""
    return Document(
        (SCENARIOS / f"{name}.yaml").read_text(), spec_from_dict,
        spec_document,
        simple_spec(interaction, LoadSchedule.constant(rate, duration),
                    **sections))


#: f+1 of a 10-node configuration
_VICTIMS = range(4)

DOCUMENTS: Dict[str, Document] = {
    "dual": DUAL,
    "population-rate": POPULATION_RATE,
    "population-load": POPULATION_LOAD,
    "sweep": SWEEP,
    "crash-and-recover": _scenario(
        "crash-and-recover", 200.0, 90.0,
        faults=(*(NodeCrash(30.0, node) for node in _VICTIMS),
                *(NodeRecover(60.0, node) for node in _VICTIMS))),
    "overload": _scenario("overload", 10_000.0, 90.0),
    "dos": _scenario("dos", 200.0, 60.0, fees=FeeSpec(),
                     adversary=AdversarySpec(budget=200_000_000,
                                             rate=2_000.0,
                                             bid_multiplier=3.0)),
    "byzantine": _scenario(
        "byzantine", 200.0, 90.0,
        byzantine=tuple(Silence(30.0, 60.0, node) for node in _VICTIMS)),
    "partition": _scenario(
        "partition", 200.0, 90.0,
        faults=(Partition(30.0, (tuple(_VICTIMS), tuple(range(4, 10)))),
                Heal(60.0))),
    "transfer": _scenario("transfer", 200.0, 10.0),
    "dapp": _scenario("dapp", 200.0, 10.0, InvokeSpec(
        AccountSample(2_000), ContractSample("counter"), "add")),
    "population": Document(
        (SCENARIOS / "population.yaml").read_text(), spec_from_dict,
        spec_document,
        simple_population_spec(
            users=1_000_000, interaction=TransferSpec(AccountSample(2_000)),
            rate_per_user=0.002, duration=20.0, cohort=1_000)),
}
