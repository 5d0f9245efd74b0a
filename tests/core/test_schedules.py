"""One fault schedule and one byzantine schedule per spec, built when the
spec is, and only for events it has.

A malformed event fails as a ``SpecError`` when the spec is made, from
code and from YAML alike, so no run starts on it; the run and its
aggregation read the schedules the spec built.
"""

from __future__ import annotations

import pytest

from repro.common.errors import SpecError
from repro.core.primary import Primary
from repro.core.spec import (
    AccountSample,
    LoadSchedule,
    TransferSpec,
    load_spec,
    simple_spec,
)
from repro.sim import byzantine as byzantine_module
from repro.sim import faults as faults_module
from repro.sim.byzantine import Silence
from repro.sim.faults import NodeCrash, NodeRecover

DOCUMENT = """
workloads:
  - client:
      location: { sample: !location [ ".*" ] }
      view: { sample: !endpoint [ ".*" ] }
      behavior:
        - interaction: !transfer
            from: { sample: !account { number: 20 } }
          load: { 0: 20, 10: 0 }
"""


def spec(**sections):
    return simple_spec(TransferSpec(AccountSample(20)),
                       LoadSchedule.constant(20, 10), **sections)


class TestMalformedEventsFailAtParseTime:
    def test_a_fault_before_time_zero(self):
        with pytest.raises(SpecError, match="^faults: .*before t=0"):
            spec(faults=(NodeCrash(-1.0, 0),))

    def test_a_fault_that_is_no_fault_event(self):
        with pytest.raises(SpecError, match="^faults: unknown fault event"):
            spec(faults=("crash node 0",))

    def test_a_byzantine_entry_that_is_no_byzantine_event(self):
        with pytest.raises(SpecError,
                           match="^byzantine: unknown byzantine event"):
            spec(byzantine=(NodeCrash(1.0, 0),))

    def test_a_fault_before_time_zero_in_yaml(self):
        with pytest.raises(SpecError, match="^faults: .*before t=0"):
            load_spec(DOCUMENT + "faults: [{at: -1, kind: crash, node: 0}]\n")

    def test_a_byzantine_window_closing_before_it_opens_in_yaml(self):
        with pytest.raises(SpecError, match=r"^byzantine\[0\]: .*close after"):
            load_spec(DOCUMENT + "byzantine:"
                      " [{start: 5, stop: 2, kind: silence, node: 0}]\n")


class TestOneSchedulePerRun:
    @pytest.fixture
    def built(self, monkeypatch):
        """Names of the schedule classes, once per schedule constructed."""
        built = []
        for module, name in ((faults_module, "FaultSchedule"),
                             (byzantine_module, "ByzantineSchedule")):
            cls = getattr(module, name)
            post_init = cls.__post_init__

            def counted(self, post_init=post_init, name=name):
                built.append(name)
                post_init(self)
            monkeypatch.setattr(cls, "__post_init__", counted)
        return built

    def test_a_spec_with_events_builds_each_schedule_once(self, built):
        faulted = spec(faults=(NodeCrash(2.0, 0), NodeRecover(4.0, 0)),
                       byzantine=(Silence(start=1.0, stop=3.0, node=1),))
        assert built == ["FaultSchedule", "ByzantineSchedule"]
        assert faulted.fault_schedule() is faulted.fault_schedule()
        result = Primary("quorum", "testnet", scale=0.05, seed=1).run(
            faulted, drain=10.0)
        assert [event["kind"] for event in result.fault_events] == [
            "silence", "crash", "recover"]
        assert built == ["FaultSchedule", "ByzantineSchedule"]

    def test_a_spec_without_events_builds_none(self, built):
        plain = spec()
        Primary("quorum", "testnet", scale=0.05, seed=1).run(plain, drain=10.0)
        assert built == []
