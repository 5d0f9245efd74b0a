"""Adversarial replicas against every protocol, audited online.

The acceptance matrix for the Byzantine subsystem: with k <= f
adversarial replicas every quorum-BFT protocol keeps both safety and
liveness; past the bound the auditor produces a deterministic forensic
report; and the empty schedule is a strict no-op (byte-identical runs).
"""

from __future__ import annotations

import pytest

from repro.consensus.auditor import SafetyAuditor
from repro.consensus.base import ConsensusHarness
from repro.consensus.ibft import IBFTReplica
from repro.consensus.testbed import (
    PROTOCOLS,
    _drive_raft,
    build_harness,
    protocol_for_chain,
    run_audited,
)
from repro.sim.byzantine import (
    ByzantineAdversary,
    ByzantineSchedule,
    CensorLeader,
    DelayReorder,
    Equivocate,
    Silence,
)

BFT_PROTOCOLS = ("hotstuff", "ibft", "tower", "algorand")


def one_adversary(kind, until=1e9):
    return ByzantineSchedule((kind(node=0, start=0.0, stop=until),))


def honest_decisions(harness, schedule):
    byzantine = set(schedule.nodes())
    return [d for d in harness.decisions if d.node not in byzantine]


class TestWithinTolerance:
    """k = 1 <= f: safety and liveness hold for every BFT protocol."""

    @pytest.mark.parametrize("protocol", BFT_PROTOCOLS)
    def test_single_equivocator_is_absorbed(self, protocol):
        schedule = one_adversary(Equivocate)
        harness, auditor = run_audited(protocol, schedule)
        assert auditor.verdict == "ok"
        assert honest_decisions(harness, schedule)
        assert auditor.liveness_grade() == "ok"

    @pytest.mark.parametrize("protocol", BFT_PROTOCOLS)
    def test_silence_window_is_absorbed(self, protocol):
        # the window closes halfway: safety must hold throughout and
        # honest commits must exist by the end of the run
        until = PROTOCOLS[protocol].until
        schedule = ByzantineSchedule((
            Silence(node=0, start=0.0, stop=until / 2),))
        harness, auditor = run_audited(protocol, schedule)
        assert auditor.verdict == "ok"
        assert honest_decisions(harness, schedule)
        assert auditor.liveness_grade() == "ok"

    def test_permanent_silence_starves_hotstuff_three_chains(self):
        # the nuance the auditor makes visible: at n=4 every fourth QC
        # transits the silent next-leader and is lost, so honest
        # replicas never see three consecutive QCs — a pure liveness
        # failure (safety stays intact) that ends when the window does
        schedule = one_adversary(Silence)
        harness, auditor = run_audited("hotstuff", schedule)
        assert auditor.verdict == "ok"
        assert not honest_decisions(harness, schedule)

    def test_delay_reorder_within_bounds(self):
        schedule = one_adversary(DelayReorder)
        harness, auditor = run_audited("hotstuff", schedule)
        assert auditor.verdict == "ok"
        assert honest_decisions(harness, schedule)
        assert harness.stats()["byzantine_delayed"] > 0

    def test_leader_censorship(self):
        schedule = one_adversary(CensorLeader)
        harness, auditor = run_audited("hotstuff", schedule)
        assert auditor.verdict == "ok"
        assert honest_decisions(harness, schedule)
        assert harness.stats()["byzantine_censored"] > 0

    def test_interventions_are_counted(self):
        schedule = one_adversary(Equivocate)
        harness, _ = run_audited("ibft", schedule)
        stats = harness.stats()
        assert stats["byzantine_equivocations"] > 0
        assert stats["byzantine_withheld"] == 0


class TestBeyondTolerance:
    """k = f+1 equivocators spanning both fork audiences: the fork lands."""

    def fork_ibft(self):
        # nodes {0, 1} cover both audience parities, so the two
        # coordinated stories each reach a quorum-sized set
        schedule = ByzantineSchedule(tuple(
            Equivocate(node=node, start=0.0, stop=10.0)
            for node in (0, 1)))
        return run_audited("ibft", schedule, until=4.0)

    def test_ibft_forks_at_f_plus_one(self):
        harness, auditor = self.fork_ibft()
        assert auditor.verdict == "violated"
        checks = {v["check"] for v in auditor.violations}
        assert "agreement" in checks

    def test_forensic_report_names_the_fork(self):
        _, auditor = self.fork_ibft()
        violation = auditor.violations[0]
        assert violation["height"] >= 1
        assert len(violation["values"]) == 2
        assert violation["values"][0] != violation["values"][1]
        assert auditor.forensic_lines()

    def test_violation_report_is_deterministic(self):
        _, first = self.fork_ibft()
        _, second = self.fork_ibft()
        assert first.report() == second.report()

    def test_raft_leader_equivocation_forks_followers(self):
        # Raft is CFT: one double-signing *leader* forks the honest
        # followers immediately (a follower's acks carry no values, so
        # a byzantine follower is harmless — the cliff is the leader)
        probe = build_harness("raft")
        probe.run(until=10.0)
        leader = max((r for r in probe.replicas if r.role == "leader"),
                     key=lambda r: r.term).node_id
        schedule = ByzantineSchedule((
            Equivocate(node=leader, start=0.0, stop=1e9),))
        adversary = ByzantineAdversary(schedule, seed=7)
        auditor = SafetyAuditor()
        harness = build_harness("raft", adversary=adversary,
                                auditor=auditor)
        _drive_raft(harness, PROTOCOLS["raft"], 18.0)
        assert auditor.verdict == "violated"
        assert {v["check"] for v in auditor.violations} == {"agreement"}


class TestEmptyScheduleIsNoOp:
    """Acceptance: byzantine runs byte-identical when the schedule is empty."""

    def run_ibft(self, adversary=None):
        harness = ConsensusHarness(
            [IBFTReplica(base_timeout=0.5) for _ in range(4)],
            seed=1, adversary=adversary)
        for i in range(20):
            harness.submit(f"tx-{i}")
        harness.run(until=6.0)
        return harness

    def test_empty_schedule_normalised_away(self):
        adversary = ByzantineAdversary(ByzantineSchedule(), seed=1)
        harness = self.run_ibft(adversary=adversary)
        assert harness.adversary is None

    def test_decisions_and_stats_identical(self):
        plain = self.run_ibft()
        empty = self.run_ibft(
            adversary=ByzantineAdversary(ByzantineSchedule(), seed=1))
        assert plain.decisions == empty.decisions
        assert plain.stats() == empty.stats()
        assert plain.engine.now == empty.engine.now


class TestAuditorStandalone:
    def test_byzantine_nodes_are_exempt(self):
        from repro.consensus.base import Decision
        auditor = SafetyAuditor(byzantine=(0,), check_certificates=False)
        auditor.observe_decision(Decision(1, "a", 0, 1.0))
        auditor.observe_decision(Decision(1, "b", 1, 1.1))
        # node 0 lies, node 1 sets the canonical value: no conflict yet
        assert auditor.verdict == "ok"
        auditor.observe_decision(Decision(1, "c", 2, 1.2))
        assert auditor.verdict == "violated"

    def test_strict_mode_raises(self):
        from repro.common.errors import SafetyViolationError
        from repro.consensus.base import Decision
        auditor = SafetyAuditor(strict=True, check_certificates=False)
        auditor.observe_decision(Decision(1, "a", 1, 1.0))
        with pytest.raises(SafetyViolationError) as excinfo:
            auditor.observe_decision(Decision(1, "b", 2, 1.1))
        assert excinfo.value.violation["check"] == "agreement"


class TestTracing:
    def test_adversary_windows_become_spans(self):
        from repro.obs.trace import LifecycleTracer
        tracer = LifecycleTracer(chain="ibft")
        schedule = ByzantineSchedule((
            Equivocate(node=0, start=0.0, stop=4.0),
            Silence(node=1, start=1.0, stop=3.0)))
        harness, _ = run_audited("ibft", schedule, until=4.0,
                                 tracer=tracer)
        spans = [s for s in tracer.spans if s.scope == "byzantine"]
        assert len(spans) == 2
        assert {s.phase for s in spans} == {"equivocate", "silence"}
        assert all(s.scope == "byzantine" for s in spans)
        meta = dict(spans[0].meta)
        assert meta["node"] == 0


class TestChainMapping:
    def test_every_benchmark_chain_maps_to_a_protocol(self):
        from repro.blockchains.registry import CHAIN_NAMES
        for chain in CHAIN_NAMES:
            assert protocol_for_chain(chain) in PROTOCOLS

    def test_unknown_chain_fails_fast(self):
        from repro.common.errors import SpecError
        with pytest.raises(SpecError):
            protocol_for_chain("bitcoin")
