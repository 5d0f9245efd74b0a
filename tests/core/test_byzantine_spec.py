"""The ``byzantine:`` spec section and the analytic degradation path."""

from __future__ import annotations

import pytest

from repro.common.errors import SpecError
from repro.consensus.models import (
    BlockAttempt,
    CliquePerf,
    ConsensusPerfModel,
    LeaderBFTPerf,
    WanProfile,
)
from repro.core.primary import Primary
from repro.core.spec import (
    AccountSample,
    LoadSchedule,
    TransferSpec,
    load_spec,
    simple_spec,
)
from repro.sim.byzantine import Equivocate, Silence

BYZANTINE_YAML = """
let:
  - &loc { sample: !location [ ".*" ] }
  - &end { sample: !endpoint [ ".*" ] }
  - &acc { sample: !account { number: 100 } }
workloads:
  - number: 1
    client:
      location: *loc
      view: *end
      behavior:
        - interaction: !transfer
            from: *acc
          load:
            0: 200
            30: 0
byzantine:
  - { start: 5, stop: 12, kind: equivocate, node: 0 }
  - { start: 5, stop: 12, kind: silence, nodes: [1, 2] }
"""


class TestSpecParsing:
    def test_yaml_byzantine_section_parses(self, fault_window):
        spec = load_spec(BYZANTINE_YAML)
        schedule = spec.byzantine_schedule()
        assert len(schedule) == 3
        assert schedule.nodes() == (0, 1, 2)
        assert fault_window(schedule) == (5.0, 12.0)

    def test_spec_without_section_has_empty_schedule(self):
        spec = load_spec(BYZANTINE_YAML.split("byzantine:")[0])
        assert spec.byzantine == ()
        assert len(spec.byzantine_schedule()) == 0

    def test_bad_section_rejected(self):
        with pytest.raises(SpecError):
            load_spec(BYZANTINE_YAML.split("byzantine:")[0]
                      + "byzantine: not-a-list\n")

    def test_simple_spec_carries_byzantine(self):
        byzantine = (Equivocate(node=0, start=1.0, stop=2.0),)
        spec = simple_spec(TransferSpec(AccountSample(10)),
                           LoadSchedule.constant(100, 30),
                           byzantine=byzantine)
        assert spec.byzantine == byzantine

    def test_malformed_event_rejected_at_parse_time(self):
        with pytest.raises(SpecError):
            load_spec(BYZANTINE_YAML.replace("kind: equivocate",
                                             "kind: bribe"))


class TestPrimaryValidation:
    """Satellite: the Primary fails fast before simulating anything."""

    def spec(self, byzantine):
        return simple_spec(TransferSpec(AccountSample(10)),
                           LoadSchedule.constant(20, 10),
                           byzantine=byzantine)

    def test_unknown_node_rejected(self):
        spec = self.spec((Equivocate(node=99, start=1.0, stop=2.0),))
        with pytest.raises(SpecError, match="unknown node 99"):
            Primary("quorum", "testnet", seed=3).run(spec)

    def test_known_nodes_accepted(self):
        spec = self.spec((Silence(node=9, start=1.0, stop=2.0),))
        result = Primary("quorum", "testnet", seed=3).run(spec, drain=20.0)
        assert result.status == "ok"


class TestAnalyticDegradation:
    """spec -> Primary -> BlockchainNetwork -> ConsensusPerfModel."""

    def run(self, byzantine=(), rate=20.0, duration=20.0, drain=30.0):
        spec = simple_spec(TransferSpec(AccountSample(10)),
                          LoadSchedule.constant(rate, duration),
                          byzantine=byzantine)
        return Primary("quorum", "testnet", seed=3).run(spec, drain=drain)

    def test_sub_tolerance_fraction_stretches_commits(self):
        byzantine = (Equivocate(node=0, start=5.0, stop=12.0),
                     Silence(node=1, start=5.0, stop=12.0))
        result = self.run(byzantine)
        assert result.status == "ok"
        assert result.fault_window() == (5.0, 12.0)
        degradation = result.degradation()
        assert (degradation["commit_ratio_during"]
                < degradation["commit_ratio_before"])

    def test_over_tolerance_fraction_denies_quorum(self):
        byzantine = tuple(Equivocate(node=i, start=5.0, stop=15.0)
                          for i in range(4))  # 4/10 >= 1/3
        result = self.run(byzantine, duration=25.0, drain=40.0)
        assert result.status == "ok"  # recovers after the window
        assert result.chain_stats["byzantine_stalled_blocks"] > 0
        assert result.degradation()["commit_ratio_during"] == 0.0

    def test_byzantine_windows_merge_into_fault_events(self):
        byzantine = (Equivocate(node=0, start=5.0, stop=12.0),)
        result = self.run(byzantine)
        kinds = [e["kind"] for e in result.fault_events]
        assert kinds == ["equivocate"]
        assert result.fault_events[0]["duration"] == 7.0

    def test_benign_run_reports_no_byzantine_stats(self):
        result = self.run()
        assert "byzantine_stalled_blocks" not in result.chain_stats
        assert result.fault_events == []


class TestPerfModelHook:
    def model(self, cls=ConsensusPerfModel, **kwargs):
        profile = WanProfile(["ohio"] * 4)
        return cls(profile, **kwargs) if kwargs else cls(profile)

    def outcome(self, model):
        return model.decide(BlockAttempt(
            tx_count=10, payload_bytes=10 * 250, exec_cpu_seconds=0.01,
            backlog=0, leader_region="ohio", arrival_rate=0.0))

    def test_zero_fraction_is_identity(self):
        model = self.model(LeaderBFTPerf)
        outcome = self.outcome(model)
        assert model.apply_byzantine(outcome, 0.0) is outcome

    def test_sub_tolerance_stretches_latency(self):
        model = self.model(LeaderBFTPerf)
        base = self.outcome(model)
        stretched = model.apply_byzantine(self.outcome(model), 0.25)
        assert stretched.committed
        assert stretched.latency > base.latency
        assert "byzantine" in stretched.breakdown

    def test_at_tolerance_denies_commit(self):
        model = self.model(LeaderBFTPerf)
        denied = model.apply_byzantine(self.outcome(model), 1.0 / 3.0)
        assert not denied.committed
        assert denied.view_changes >= 1

    def test_clique_tolerates_up_to_half(self):
        model = self.model(CliquePerf)
        outcome = model.apply_byzantine(self.outcome(model), 0.4)
        assert outcome.committed
        denied = model.apply_byzantine(self.outcome(model), 0.5)
        assert not denied.committed
