"""Golden bytes of the message-level lane, under faults and adversaries.

``message_golden.json`` holds, for each of the seven ``PROTOCOLS``
recipes at n = max(default, 7), the sha256 of ``repr((decisions,
sorted(stats().items()), network.messages_sent, engine.events_executed,
sorted(metrics.sample().items())))`` after (a) a benign single-region
run, (b) a run over three regions with a baseline drop rate and a fault
schedule that crashes, degrades links by id and by region, partitions,
heals, recovers and takes a region down, (c) ``run_audited`` under each
of the four adversary kinds on node 0. The registry sample is in the
digest because ``stats()`` alone does not cover the replicas' own
``replica.<protocol>.<name>`` counters or the network's byte totals.

Every routed message crosses the harness, the network and the event
calendar, so a change to RNG draw order, pipe reservations, calendar
order or a counter moves a digest; a change that means to keep the
lane's behaviour must leave every one of them alone.

Regenerate (only when a behaviour change is intended) with::

    PYTHONPATH=src python tests/consensus/test_message_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Callable, Dict

import pytest

from repro.consensus.base import ConsensusHarness
from repro.consensus.testbed import PROTOCOLS, build_harness, run_audited
from repro.sim.byzantine import (
    ByzantineSchedule,
    CensorLeader,
    DelayReorder,
    Equivocate,
    Silence,
)
from repro.sim.faults import (
    FaultInjector,
    FaultSchedule,
    Heal,
    LinkDegrade,
    NodeCrash,
    NodeRecover,
    Partition,
    RegionOutage,
)

GOLDEN = Path(__file__).with_name("message_golden.json")

REGIONS = ("ohio", "oregon", "tokyo")

#: single-region HotStuff and IBFT commit ~1000 heights per simulated
#: second, so their horizons are cut to keep the module at a few seconds
#: of wall-clock (both still outlast their compressed pacemaker timeout);
#: the timer-driven protocols keep their recipe's horizon
FAST_HORIZON = {"hotstuff": 0.6, "ibft": 0.7}

#: over three regions a round costs a WAN round trip, so the faulted runs
#: get the horizon over which each protocol stays busy under the schedule
FAULT_HORIZON = {"hotstuff": 12.0, "ibft": 4.0, "tower": 15.0,
                 "algorand": 40.0, "raft": 36.0, "clique": 25.0,
                 "snowball": 6.0}


def _size(protocol: str) -> int:
    return max(PROTOCOLS[protocol].default_n, 7)


def _horizon(protocol: str) -> float:
    return FAST_HORIZON.get(protocol, PROTOCOLS[protocol].until)


def _drive(harness: ConsensusHarness, protocol: str, until: float) -> None:
    recipe = PROTOCOLS[protocol]
    if recipe.driver is not None:
        recipe.driver(harness, recipe, until)
        return
    for i in range(recipe.payloads):
        harness.submit(f"tx-{i}")
    harness.run(until=until)


def _digest(harness: ConsensusHarness) -> str:
    state = (harness.decisions, sorted(harness.stats().items()),
             harness.network.messages_sent, harness.engine.events_executed,
             sorted(harness.metrics.sample().items()))
    return hashlib.sha256(repr(state).encode()).hexdigest()


def _benign(protocol: str) -> ConsensusHarness:
    harness = build_harness(protocol, n=_size(protocol))
    _drive(harness, protocol, _horizon(protocol))
    return harness


def _fault_schedule(n: int, until: float) -> FaultSchedule:
    """Every fault kind once, at fixed fractions of the horizon.

    The partition leaves a quorum on the large side; both degraded links
    are restored before the end, so the run re-enters the no-fault state.
    """
    at = lambda fraction: round(fraction * until, 6)
    return FaultSchedule((
        NodeCrash(at(0.10), 1),
        LinkDegrade(at(0.15), 0, 2, extra_latency=0.03, drop_rate=0.2),
        LinkDegrade(at(0.20), "ohio", "tokyo",
                    extra_latency=0.05, drop_rate=0.1),
        Partition(at(0.35), ((0, 1), tuple(range(2, n)))),
        Heal(at(0.50)),
        NodeRecover(at(0.55), 1),
        RegionOutage(at(0.65), "oregon", duration=at(0.15)),
        LinkDegrade(at(0.90), 0, 2),
        LinkDegrade(at(0.90), "ohio", "tokyo"),
    ))


def _faulted(protocol: str) -> ConsensusHarness:
    recipe = PROTOCOLS[protocol]
    n = _size(protocol)
    until = FAULT_HORIZON[protocol]
    harness = ConsensusHarness(
        [recipe.factory(i, n, recipe.seed) for i in range(n)],
        regions=REGIONS, seed=recipe.seed, drop_rate=0.02,
        injector=FaultInjector(_fault_schedule(n, until)))
    _drive(harness, protocol, until)
    return harness


def _adversarial(event: type) -> Callable[[str], ConsensusHarness]:
    def run(protocol: str) -> ConsensusHarness:
        until = _horizon(protocol)
        schedule = ByzantineSchedule((event(0.0, 0.75 * until, 0),))
        harness, _ = run_audited(protocol, schedule, n=_size(protocol),
                                 until=until)
        return harness
    return run


SCENARIOS: Dict[str, Callable[[str], ConsensusHarness]] = {
    "benign": _benign,
    "faults": _faulted,
    "equivocate": _adversarial(Equivocate),
    "silence": _adversarial(Silence),
    "delay_reorder": _adversarial(DelayReorder),
    "censor_leader": _adversarial(CensorLeader),
}


@pytest.fixture(scope="module")
def golden() -> Dict[str, str]:
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_cell(golden):
    assert sorted(golden) == sorted(
        f"{protocol}/{scenario}"
        for protocol in PROTOCOLS for scenario in SCENARIOS)


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_message_level_bytes_match_golden(protocol, scenario, golden):
    harness = SCENARIOS[scenario](protocol)
    assert harness.messages_routed, "a run that routes nothing proves nothing"
    if scenario == "faults":
        stats = harness.stats()
        assert stats["dropped_by_crash"] and stats["dropped_by_fault"]
        assert stats["dropped_by_loss"]
    assert _digest(harness) == golden[f"{protocol}/{scenario}"]


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_screening_schedules_what_the_unscreened_route_does(protocol):
    """An auditor sends every target of every fan-out through the
    harness's per-target screening step; with no adversary and no fault
    in force, that step must pass each message on exactly as the
    unscreened route does, so the audited run is the bare one."""
    def observed(harness: ConsensusHarness):
        return (harness.decisions, harness.stats(),
                harness.network.messages_sent,
                harness.engine.events_executed)

    audited, auditor = run_audited(protocol, ByzantineSchedule(()),
                                   n=_size(protocol),
                                   until=_horizon(protocol))
    assert auditor._observed_messages == audited.messages_routed
    assert observed(audited) == observed(_benign(protocol))


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_a_continued_run_does_not_restart_the_replicas(protocol):
    """``harness.run(t1); harness.run(t2)`` is one run to t2: replicas
    start on the first call only, so the second continues where the
    engine stopped, exactly as ``harness.engine.run(t2)`` does."""
    until = _horizon(protocol)
    digests = []
    for resume in ("harness", "engine"):
        harness = build_harness(protocol, n=_size(protocol))
        for i in range(PROTOCOLS[protocol].payloads):
            harness.submit(f"tx-{i}")
        harness.run(until=until / 2)
        (harness if resume == "harness" else harness.engine).run(until=until)
        assert harness.messages_routed
        digests.append(_digest(harness))
    assert digests[0] == digests[1]


if __name__ == "__main__":
    digests = {f"{protocol}/{scenario}": _digest(run(protocol))
               for protocol in PROTOCOLS for scenario, run in SCENARIOS.items()}
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
