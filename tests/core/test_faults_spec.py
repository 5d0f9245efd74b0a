"""The ``faults:`` spec section and the end-to-end degradation pipeline."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.common.errors import SpecError
from repro.core.results import BenchmarkResult
from repro.core.runner import run_benchmark
from repro.core.spec import (
    AccountSample,
    LoadSchedule,
    TransferSpec,
    load_spec,
    simple_spec,
)
from repro.sim.faults import NodeCrash, NodeRecover, events_from_dicts

PARTITION = (Path(__file__).resolve().parents[2] / "examples" / "specs"
             / "partition.yaml")

FAULTED_YAML = """
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
            90: 0
faults:
  - { at: 30, kind: crash, nodes: [0, 1, 2, 3] }
  - { at: 60, kind: recover, nodes: [0, 1, 2, 3] }
"""


class TestSpecParsing:
    def test_yaml_faults_section_parses(self, fault_window):
        spec = load_spec(FAULTED_YAML)
        assert len(spec.faults) == 8
        schedule = spec.fault_schedule()
        assert fault_window(schedule) == (30.0, 60.0)
        kinds = [type(e) for e in schedule]
        assert kinds[:4] == [NodeCrash] * 4
        assert kinds[4:] == [NodeRecover] * 4

    def test_spec_without_faults_has_empty_schedule(self, fault_window):
        spec = load_spec(FAULTED_YAML.split("faults:")[0])
        assert spec.faults == ()
        assert fault_window(spec.fault_schedule()) is None

    def test_bad_faults_section_rejected(self):
        with pytest.raises(SpecError):
            load_spec(FAULTED_YAML.split("faults:")[0]
                      + "faults: not-a-list\n")

    def test_simple_spec_carries_faults(self):
        faults = events_from_dicts([{"at": 5, "kind": "crash", "node": 0}])
        spec = simple_spec(TransferSpec(AccountSample(10)),
                           LoadSchedule.constant(100, 30), faults=faults)
        assert spec.faults == faults


class TestLinkFaultsOnAChain:
    """A chain run reads no link state: a ``link_degrade`` there fails
    before anything runs instead of being reported as applied."""

    @pytest.mark.parametrize("restore", [False, True])
    def test_a_chain_run_rejects_link_degrade(self, restore):
        link = ("{ at: 60, kind: link_degrade, src: 0, dst: 1 }" if restore
                else "{ at: 30, kind: link_degrade, src: 0, dst: 1,"
                " extra_latency: 5.0, drop_rate: 1.0 }")
        spec = load_spec(FAULTED_YAML.split("faults:")[0]
                         + f"faults:\n  - {link}\n")
        with pytest.raises(SpecError, match="^faults: link_degrade"):
            run_benchmark("quorum", "testnet", spec, scale=0.05)


class TestPartitionOnAChain:
    def test_one_listed_group_splits_it_from_the_rest(self):
        """The unlisted nodes are the other side, so ``[[0, 1, 2, 3]]``
        is partition.yaml's explicit 4|6 split."""
        text = PARTITION.read_text()
        explicit = "groups: [[0, 1, 2, 3], [4, 5, 6, 7, 8, 9]]"
        assert explicit in text
        listed, implicit = (
            run_benchmark("quorum", "testnet", document, scale=0.05)
            for document in (text, text.replace(explicit,
                                                "groups: [[0, 1, 2, 3]]")))
        assert implicit.records == listed.records
        assert implicit.summary()["degradation"] == \
            listed.summary()["degradation"]
        assert listed.summary()["degradation"]["commit_ratio_during"] == 0


class TestEndToEnd:
    """The acceptance scenario: crash 4/10 validators at t=30, recover at 60.

    With n=10 and f=3 the commit quorum is 7; four crashed validators leave
    6 — the chain stalls during [30, 60) and resumes after recovery.
    """

    @pytest.fixture(scope="class")
    def result(self):
        return run_benchmark(
            "quorum", "testnet", load_spec(FAULTED_YAML),
            workload_name="crash-and-recover", scale=0.05, seed=3)

    def test_commit_ratio_dips_during_fault(self, result):
        before = result.commit_ratio_between(0.0, 30.0)
        during = result.commit_ratio_between(32.0, 60.0)
        after = result.commit_ratio_between(60.0, 90.0)
        assert before > 0.8
        assert during < 0.1 * before
        assert after > 0.5

    def test_time_to_recover_is_finite(self, result):
        ttr = result.time_to_recover()
        assert ttr is not None
        assert 0.0 <= ttr < 20.0

    def test_degradation_summary(self, result):
        info = result.degradation()
        assert info is not None
        assert info["fault_window"] == [30.0, 60.0]
        assert info["commit_ratio_during"] < info["commit_ratio_before"]
        assert info["time_to_recover_s"] is not None

    def test_fault_events_recorded_in_result(self, result):
        assert len(result.fault_events) == 8
        kinds = {e["kind"] for e in result.fault_events}
        assert kinds == {"crash", "recover"}
        assert result.chain_stats["stalled_rounds"] > 0
        assert result.chain_stats["fault_events_applied"] == 8

    def test_degradation_survives_json_roundtrip(self, result):
        text = result.to_json()
        loaded = BenchmarkResult.from_json(text)
        assert loaded.fault_events == result.fault_events
        assert loaded.degradation() == result.degradation()
        # the summary block carries the degradation report
        assert "degradation" in json.loads(text)["summary"]

    def test_unfaulted_run_reports_no_degradation(self):
        spec = simple_spec(TransferSpec(AccountSample(50)),
                           LoadSchedule.constant(100, 20))
        result = run_benchmark("quorum", "testnet", spec, scale=0.05, seed=3)
        assert result.degradation() is None
        assert result.fault_events == []
        assert "stalled_rounds" not in result.chain_stats
