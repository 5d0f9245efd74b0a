"""Message-level tests for chained HotStuff (Diem's consensus)."""

from __future__ import annotations

import pytest

from repro.consensus.base import ConsensusHarness
from repro.consensus.hotstuff import HotStuffReplica, QuorumCertificate
from repro.consensus.testbed import build_harness


def run_harness(n=4, regions=("ohio",), until=2.0, payloads=10, seed=1,
                drop_rate=0.0, **replica_kwargs):
    harness = ConsensusHarness(
        [HotStuffReplica(**replica_kwargs) for _ in range(n)],
        regions=regions, seed=seed, drop_rate=drop_rate)
    for i in range(payloads):
        harness.submit(f"tx-{i}")
    harness.run(until=until)
    return harness


class TestSafety:
    def test_agreement_local_cluster(self):
        harness = run_harness(n=4, until=1.0)
        harness.check_agreement()
        harness.check_no_duplicate_commits()

    def test_agreement_geo_distributed(self):
        harness = run_harness(n=7, regions=("ohio", "tokyo", "milan"),
                              until=10.0)
        harness.check_agreement()
        harness.check_no_duplicate_commits()

    def test_committed_chains_are_prefixes(self):
        harness = run_harness(n=4)
        chains = [harness.committed_chain(i) for i in range(4)]
        longest = max(chains, key=len)
        for chain in chains:
            assert chain == longest[:len(chain)]

    def test_agreement_under_message_loss(self):
        harness = run_harness(n=4, regions=("ohio", "tokyo"), until=15.0,
                              drop_rate=0.05)
        harness.check_agreement()
        harness.check_no_duplicate_commits()


class TestLiveness:
    def test_progress_in_synchrony(self):
        harness = run_harness(n=4)
        assert len(harness.decisions) > 0

    def test_client_payloads_commit_in_order(self):
        harness = run_harness(n=4, payloads=5)
        values = [v for _, v in harness.committed_chain(0)]
        submitted = [v for v in values if str(v).startswith("tx-")]
        assert submitted[:5] == [f"tx-{i}" for i in range(5)]

    def test_all_replicas_eventually_commit(self):
        harness = run_harness(n=4, until=3.0)
        per_node = harness.decisions_by_node()
        assert all(len(decisions) > 0 for decisions in per_node.values())

    def test_progress_despite_message_loss(self):
        # the pacemaker must recover lost proposals/votes
        harness = run_harness(n=4, regions=("ohio", "tokyo"), until=30.0,
                              drop_rate=0.05)
        assert len(harness.decisions) > 0


class TestThreeChainRule:
    def test_commit_lags_by_two_views(self):
        harness = run_harness(n=4, until=1.0)
        max_view = max(r.view for r in harness.replicas)
        max_committed = max((d.height for d in harness.decisions), default=0)
        # height h commits once views h+1 and h+2 form the chain
        assert max_committed <= max_view
        assert max_committed >= max_view - 4

    def test_locked_qc_advances(self):
        harness = run_harness(n=4)
        assert all(r.locked_qc.view > 0 for r in harness.replicas)

    def test_genesis_qc(self):
        qc = QuorumCertificate.genesis()
        assert qc.view == 0
        assert qc.block_id == "genesis"


class TestPacemaker:
    def test_quorum_size(self):
        harness = ConsensusHarness([HotStuffReplica() for _ in range(4)])
        assert harness.replicas[0].f == 1
        assert harness.replicas[0].quorum == 3

    def test_quorum_size_n7(self):
        harness = ConsensusHarness([HotStuffReplica() for _ in range(7)])
        assert harness.replicas[0].f == 2
        assert harness.replicas[0].quorum == 5

    def test_dead_timers_do_not_pile_up(self):
        # every view re-arms (cancels) each replica's pacemaker timer, so
        # at n = 16 nearly every calendar entry would be a dead timer if
        # the calendar kept them until their time came
        harness = build_harness("hotstuff", n=16)
        for i in range(200):
            harness.submit(f"tx-{i}")
        engine = harness.engine
        for step in range(1, 11):
            harness.run(until=0.05 * step)
            live = sum(1 for entry in engine._queue
                       if entry[1] not in engine._cancelled)
            assert len(engine._queue) <= 2 * live + 64, (
                engine.now, len(engine._queue), live)
        assert len(harness.decisions) > 16 * 50

    def test_leader_rotation(self):
        harness = run_harness(n=4, until=0.1)
        replica = harness.replicas[0]
        leaders = {replica.leader_of(v) for v in range(1, 9)}
        assert leaders == {0, 1, 2, 3}

    def test_timeout_grows_exponentially(self):
        replica = HotStuffReplica(base_timeout=1.0)
        replica._timeouts_fired = 3
        assert replica._current_timeout() == 8.0

    def test_timeout_capped(self):
        replica = HotStuffReplica(base_timeout=1.0, max_timeout=10.0)
        replica._timeouts_fired = 30
        assert replica._current_timeout() == 10.0
