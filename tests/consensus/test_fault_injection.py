"""Schedule-driven fault injection through the consensus harness.

Horizons are short (a few virtual seconds) and pacemaker timeouts are
compressed — a single-region cluster commits ~1000 heights per virtual
second, so these windows already cover thousands of protocol rounds.
"""

from __future__ import annotations

import pytest

from repro.consensus.base import ConsensusHarness, Message, Replica
from repro.consensus.hotstuff import HotStuffReplica
from repro.consensus.ibft import IBFTReplica
from repro.sim.faults import FaultInjector, FaultSchedule


def hotstuff_harness(n=4, schedule=None, until=6.0, seed=1, payloads=20):
    injector = FaultInjector(schedule) if schedule is not None else None
    harness = ConsensusHarness(
        [HotStuffReplica(base_timeout=0.25) for _ in range(n)],
        seed=seed, injector=injector)
    for i in range(payloads):
        harness.submit(f"tx-{i}")
    harness.run(until=until)
    return harness


def ibft_harness(n=4, schedule=None, until=6.0, seed=1, payloads=20):
    injector = FaultInjector(schedule) if schedule is not None else None
    harness = ConsensusHarness(
        [IBFTReplica(base_timeout=0.5) for _ in range(n)],
        seed=seed, injector=injector)
    for i in range(payloads):
        harness.submit(f"tx-{i}")
    harness.run(until=until)
    return harness


class TestDropAccounting:
    def test_crash_drops_counted_separately_from_loss(self):
        schedule = FaultSchedule.from_dicts([
            {"at": 0.5, "kind": "crash", "node": 3},
        ])
        harness = ConsensusHarness(
            [HotStuffReplica(base_timeout=0.25) for _ in range(4)],
            seed=1, drop_rate=0.05,
            injector=FaultInjector(schedule))
        harness.run(until=4.0)
        stats = harness.stats()
        assert stats["dropped_by_crash"] > 0
        assert stats["dropped_by_loss"] > 0
        # no partition/outage/link faults were scheduled
        assert stats["dropped_by_fault"] == 0

    def test_partition_drops_counted_as_fault(self):
        schedule = FaultSchedule.from_dicts([
            {"at": 0.5, "kind": "partition", "groups": [[0, 1], [2, 3]]},
        ])
        harness = hotstuff_harness(schedule=schedule, until=4.0)
        stats = harness.stats()
        assert stats["dropped_by_fault"] > 0
        assert stats["dropped_by_crash"] == 0

    def test_fault_free_run_counts_nothing(self):
        harness = hotstuff_harness(until=2.0)
        stats = harness.stats()
        assert stats["dropped_by_crash"] == 0
        assert stats["dropped_by_fault"] == 0
        assert stats["dropped_by_loss"] == 0


class TestHotStuffRecovery:
    def test_crash_then_recover_resumes_commits(self):
        schedule = FaultSchedule.from_dicts([
            {"at": 1.0, "kind": "crash", "node": 0},
            {"at": 2.0, "kind": "recover", "node": 0},
        ])
        harness = hotstuff_harness(schedule=schedule, until=6.0)
        harness.check_agreement()
        harness.check_no_duplicate_commits()
        recovered_commits = [d for d in harness.decisions if d.time > 2.0]
        assert recovered_commits, "commits never resumed after recovery"

    def test_recovered_node_commits_again(self):
        schedule = FaultSchedule.from_dicts([
            {"at": 1.0, "kind": "crash", "node": 1},
            {"at": 2.0, "kind": "recover", "node": 1},
        ])
        harness = hotstuff_harness(schedule=schedule, until=8.0)
        own = [d for d in harness.decisions if d.node == 1 and d.time > 2.0]
        assert own, "the recovered replica never committed again"

    def test_partition_then_heal_keeps_safety(self):
        schedule = FaultSchedule.from_dicts([
            {"at": 0.5, "kind": "partition", "groups": [[0], [1, 2, 3]]},
            {"at": 2.0, "kind": "heal"},
        ])
        harness = hotstuff_harness(schedule=schedule, until=6.0)
        harness.check_agreement()
        harness.check_no_duplicate_commits()
        assert any(d.time > 2.0 for d in harness.decisions)


class TestIBFTRecovery:
    def test_crash_then_recover_state_syncs(self):
        schedule = FaultSchedule.from_dicts([
            {"at": 1.0, "kind": "crash", "node": 2},
            {"at": 3.0, "kind": "recover", "node": 2},
        ])
        harness = ibft_harness(schedule=schedule, until=8.0)
        harness.check_agreement()
        harness.check_no_duplicate_commits()
        # the recovered node adopted the heights it slept through and
        # resumed committing new ones
        own = [d for d in harness.decisions if d.node == 2 and d.time > 3.0]
        assert own
        replica = harness.replicas[2]
        assert replica.height > 1

    def test_commits_resume_after_quorum_restored(self):
        # with n=4, two crashed nodes deny the 2f+1=3 quorum entirely
        schedule = FaultSchedule.from_dicts([
            {"at": 1.0, "kind": "crash", "nodes": [0, 1]},
            {"at": 4.0, "kind": "recover", "nodes": [0, 1]},
        ])
        harness = ibft_harness(schedule=schedule, until=12.0)
        harness.check_agreement()
        stalled = [d for d in harness.decisions if 1.5 < d.time < 4.0]
        resumed = [d for d in harness.decisions if d.time > 4.0]
        assert not stalled, "commits happened without a quorum"
        assert resumed, "commits never resumed after recovery"


class TestManualDriving:
    def test_legacy_crash_api_still_works(self):
        harness = ConsensusHarness([HotStuffReplica() for _ in range(4)],
                                   seed=1)
        harness.crash(3)
        assert 3 in harness.crashed
        harness.recover(3)
        assert 3 not in harness.crashed

    def test_the_harness_runs_the_injector_it_is_given(self):
        schedule = FaultSchedule.from_dicts([
            {"at": 0.5, "kind": "crash", "node": 0},
        ])
        injector = FaultInjector(schedule)
        harness = ConsensusHarness(
            [HotStuffReplica(base_timeout=0.25) for _ in range(4)],
            seed=1, injector=injector)
        harness.run(until=3.0)
        assert harness.injector is injector
        assert injector.is_crashed(0)
        assert harness.stats()["dropped_by_crash"] > 0


class Recorder(Replica):
    """A replica that only notes when each message reaches it."""

    def __init__(self):
        super().__init__()
        self.arrivals = []

    def on_message(self, message):
        self.arrivals.append(self.now)


class TestRouteFaults:
    """Faults as ``ConsensusHarness.route`` applies them, one message at a
    time. Replicas 0 and 2 are in ohio, 1 and 3 in tokyo."""

    def harness(self):
        injector = FaultInjector()
        harness = ConsensusHarness([Recorder() for _ in range(4)],
                                   regions=("ohio", "tokyo"), seed=1,
                                   injector=injector)
        return harness, injector

    def delay(self, harness, sender, target):
        """Seconds one message takes from *sender* to *target*; None when
        it is lost."""
        arrivals = harness.replicas[target].arrivals
        seen, start = len(arrivals), harness.engine.now
        harness.route(sender, (target,), Message("ping", sender))
        harness.run(until=start + 5.0)
        return arrivals[seen] - start if len(arrivals) > seen else None

    def test_without_faults_every_message_arrives(self):
        harness, _ = self.harness()
        for sender, target in ((0, 1), (1, 0), (0, 2), (3, 1)):
            assert self.delay(harness, sender, target) is not None
        stats = harness.stats()
        assert stats["dropped_by_crash"] == stats["dropped_by_fault"] == 0

    def test_crashed_replica_receives_nothing(self):
        harness, injector = self.harness()
        injector.crash(1)
        assert self.delay(harness, 0, 1) is None
        assert harness.stats()["dropped_by_crash"] == 1

    def test_partition_blocks_cross_group_messages_until_healed(self):
        harness, injector = self.harness()
        injector.partition([[0], [1]])
        assert self.delay(harness, 0, 1) is None
        assert harness.stats()["dropped_by_fault"] == 1
        injector.heal()
        assert self.delay(harness, 0, 1) is not None

    def test_region_partition_applies_to_replicas(self):
        harness, injector = self.harness()
        injector.partition([["ohio"], ["tokyo"]])
        assert self.delay(harness, 0, 1) is None
        assert self.delay(harness, 3, 2) is None
        assert self.delay(harness, 0, 2) is not None
        assert harness.stats()["dropped_by_fault"] == 2

    def test_link_latency_delays_the_message(self):
        harness, injector = self.harness()
        base = self.delay(harness, 0, 2)
        injector.degrade_link(0, 2, extra_latency=0.75, drop_rate=0.0)
        degraded = self.delay(harness, 2, 0)
        assert degraded == pytest.approx(base + 0.75, abs=1e-3)
        assert harness.stats()["dropped_by_fault"] == 0

    def test_region_link_with_drop_rate_one_loses_every_message(self):
        harness, injector = self.harness()
        injector.degrade_link("ohio", "tokyo", extra_latency=0.0,
                              drop_rate=1.0)
        for sender, target in ((0, 1), (1, 0), (2, 3), (3, 0)):
            assert self.delay(harness, sender, target) is None
        assert harness.stats()["dropped_by_fault"] == 4
        # the region link is between regions: ohio to ohio is untouched
        assert self.delay(harness, 0, 2) is not None
