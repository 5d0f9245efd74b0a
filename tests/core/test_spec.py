"""Tests for the workload specification language (§4)."""

from __future__ import annotations

import pytest

from repro.common.errors import SpecError
from repro.core.spec import (
    AccountSample,
    Behavior,
    ContractSample,
    EndpointSample,
    InvokeSpec,
    LoadSchedule,
    LocationSample,
    TransferSpec,
    WorkloadGroup,
    WorkloadSpec,
    load_spec,
    parse_function_call,
    simple_spec,
)

PAPER_EXAMPLE = """
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
"""


class TestPaperExample:
    """The exact configuration file printed in §4."""

    def test_parses(self):
        spec = load_spec(PAPER_EXAMPLE)
        assert len(spec.workloads) == 1

    def test_three_clients(self):
        spec = load_spec(PAPER_EXAMPLE)
        assert spec.workloads[0].number == 3

    def test_account_population(self):
        spec = load_spec(PAPER_EXAMPLE)
        assert spec.account_population() == 2000

    def test_dapp_and_function(self):
        spec = load_spec(PAPER_EXAMPLE)
        interaction = spec.workloads[0].client.behaviors[0].interaction
        assert isinstance(interaction, InvokeSpec)
        assert interaction.contract.name == "dota"
        assert interaction.function == "update"
        assert interaction.args == (1, 1)

    def test_load_schedule(self):
        spec = load_spec(PAPER_EXAMPLE)
        load = spec.workloads[0].client.behaviors[0].load
        assert load.rate_at(10) == 4432
        assert load.rate_at(60) == 4438
        assert load.rate_at(130) == 0
        assert load.duration == 120

    def test_location_and_view_samples(self):
        spec = load_spec(PAPER_EXAMPLE)
        client = spec.workloads[0].client
        assert client.location.matches("us-east-2")
        assert not client.location.matches("ohio")
        assert client.view.matches("any-endpoint-at-all")

    def test_contracts_used(self):
        assert load_spec(PAPER_EXAMPLE).contracts_used() == ["dota"]

    def test_offered_load(self):
        spec = load_spec(PAPER_EXAMPLE)
        total = 3 * (4432 * 50 + 4438 * 70)
        assert spec.offered_load() == pytest.approx(total / 120)


class TestFunctionCallParsing:
    def test_no_args(self):
        assert parse_function_call("add") == ("add", ())
        assert parse_function_call("add()") == ("add", ())

    def test_int_args(self):
        assert parse_function_call("update(1, 2)") == ("update", (1, 2))

    def test_string_args(self):
        name, args = parse_function_call('upload("vid")')
        assert name == "upload"
        assert args == ("vid",)

    def test_garbage_rejected(self):
        with pytest.raises(SpecError):
            parse_function_call("???")


class TestLoadSchedule:
    def test_constant(self):
        load = LoadSchedule.constant(100, 60)
        assert load.rate_at(0) == 100
        assert load.rate_at(59.9) == 100
        assert load.rate_at(60) == 0
        assert load.duration == 60

    def test_total_transactions(self):
        load = LoadSchedule.constant(100, 60)
        assert load.total_transactions() == 6000

    def test_from_mapping_sorts(self):
        load = LoadSchedule.from_mapping({50: 10, 0: 20, 120: 0})
        assert load.points[0] == (0, 20)

    def test_scaled(self):
        load = LoadSchedule.constant(100, 60).scaled(0.5)
        assert load.rate_at(0) == 50

    def test_negative_rate_rejected(self):
        with pytest.raises(SpecError):
            LoadSchedule(((0.0, -1.0),))

    def test_unsorted_points_rejected(self):
        with pytest.raises(SpecError):
            LoadSchedule(((10.0, 1.0), (0.0, 2.0)))

    def test_empty_rejected(self):
        with pytest.raises(SpecError):
            LoadSchedule(())

    def test_rate_before_start_is_zero(self):
        assert LoadSchedule.constant(5, 10).rate_at(-1) == 0


class TestValidation:
    def test_transfer_interaction(self):
        text = """
workloads:
  - number: 1
    client:
      location: { sample: !location [ ".*" ] }
      view: { sample: !endpoint [ ".*" ] }
      behavior:
        - interaction: !transfer
            from: { sample: !account { number: 10 } }
            amount: 5
          load: { 0: 10, 10: 0 }
"""
        spec = load_spec(text)
        interaction = spec.workloads[0].client.behaviors[0].interaction
        assert isinstance(interaction, TransferSpec)
        assert interaction.amount == 5

    def test_missing_workloads_rejected(self):
        with pytest.raises(SpecError):
            load_spec("let: []")

    def test_empty_document_rejected(self):
        with pytest.raises(SpecError):
            load_spec("")

    def test_zero_accounts_rejected(self):
        with pytest.raises(SpecError):
            AccountSample(0)

    def test_zero_clients_rejected(self):
        with pytest.raises(SpecError):
            WorkloadGroup(0, None)

    def test_spec_needs_a_workload(self):
        with pytest.raises(SpecError):
            WorkloadSpec(())

    def test_simple_spec_helper(self):
        spec = simple_spec(TransferSpec(AccountSample(5)),
                           LoadSchedule.constant(10, 5), clients=2)
        assert spec.workloads[0].number == 2
        assert spec.duration == 5
        assert spec.account_population() == 5

    def test_endpoint_sample_regex(self):
        sample = EndpointSample(("quorum-node-.*",))
        assert sample.matches("quorum-node-3")
        assert not sample.matches("diem-node-3")


_GROUP = """
workloads:
  - number: 1
    client:
      location: { sample: !location [ ".*" ] }
      view: { sample: !endpoint [ ".*" ] }
      behavior:
        - interaction: !transfer
            from: { sample: !account { number: 10 } }
          load: { 0: 10, 10: 0 }
"""

_POPULATION = """
population:
  users: 1000
  rate_per_user: 0.01
  duration: 10
  interaction: !transfer
    from: { sample: !account { number: 10 } }
"""

_SWEEP = """
sweep:
  chains: [quorum]
  configurations: [testnet]
  workloads: [native-100]
"""

#: (malformed document, the key path its SpecError must start with)
PROBES = [
    ("workloads:\n  - number: 1\n", "workloads[0].client"),
    (_GROUP.replace("          load: { 0: 10, 10: 0 }\n", ""),
     "workloads[0].client.behavior[0].load"),
    (_GROUP.replace("      behavior:", "      behaviour:"),
     "workloads[0].client.behaviour"),
    (_GROUP.replace("number: 1", "number: two"), "workloads[0].number"),
    (_GROUP.replace("!transfer", "!transfr"),
     "workloads[0].client.behavior[0].interaction"),
    (_GROUP.replace("{ number: 10 }", "{ numbr: 10 }"),
     "workloads[0].client.behavior[0].interaction.from.sample.numbr"),
    (_GROUP.replace("{ 0: 10, 10: 0 }", "{ 0: fast, 10: 0 }"),
     "workloads[0].client.behavior[0].load.0"),
    (_GROUP.replace("!location [ \".*\" ]", "!location [ 5 ]"),
     "workloads[0].client.location.sample.patterns[0]"),
    (_GROUP + "fault:\n  - { at: 5, kind: heal }\n", "fault"),
    (_GROUP + "faults:\n  - { at: 5, kind: partition }\n",
     "faults[0].groups"),
    (_GROUP + "faults:\n  - { at: 5, kind: link_degrade, src: a, dst: b,"
     " extra_latncy: 0.2 }\n", "faults[0].extra_latncy"),
    (_GROUP + "faults:\n  - { kind: crash, node: 0 }\n", "faults[0].at"),
    (_GROUP + "faults:\n  - { at: 5, kind: meteor }\n", "faults[0].kind"),
    (_GROUP + "faults:\n  - { at: 5, kind: crash, nodes: [0, [1]] }\n",
     "faults[0].nodes[1]"),
    (_GROUP + "byzantine:\n  - { start: 0, stop: 5, kind: delay_reorder,"
     " node: 0, max_dlay: 0.3 }\n", "byzantine[0].max_dlay"),
    (_GROUP + "byzantine:\n  - { start: 0, stop: 5, kind: silence,"
     " node: validator-0 }\n", "byzantine[0].node"),
    (_GROUP + "fees: { fee_bump: high }\n", "fees.fee_bump"),
    (_GROUP + "fees: { enabled: 'no' }\n", "fees.enabled"),
    (_GROUP + "adversary: { budget: lots }\n", "adversary.budget"),
    (_GROUP + "deadline: soon\n", "deadline"),
    (_POPULATION.replace("users: 1000", "users: 2.7"), "population.users"),
    (_POPULATION + "  cohort: 1.5\n", "population.cohort"),
    (_SWEEP + "  seeds: [one]\n", "sweep.seeds[0]"),
    (_SWEEP + "optoins:\n  accounts: 5\n", "optoins"),
    (_SWEEP + "options:\n  accounts: 5.5\n", "options.accounts"),
]


@pytest.mark.parametrize("text, path", PROBES,
                         ids=[path for _, path in PROBES])
def test_a_malformed_spec_is_a_spec_error_naming_its_key(text, path):
    from repro.sweep import load_sweep

    load = load_sweep if text.lstrip().startswith("sweep:") else load_spec
    with pytest.raises(SpecError) as excinfo:
        load(text)
    assert str(excinfo.value).startswith(f"{path}: "), str(excinfo.value)


class TestSectionReading:
    def test_fees_disabled_is_no_fees_section(self):
        spec = load_spec(_GROUP + "fees: { enabled: false, base_fee: 5 }\n")
        assert spec.fees is None
        assert spec == load_spec(_GROUP)

    def test_node_and_nodes_together_rejected(self):
        with pytest.raises(SpecError, match=r"^faults\[0\]\.nodes: give"):
            load_spec(_GROUP + "faults:\n  - { at: 5, kind: crash, node: 0,"
                      " nodes: [1] }\n")

    def test_an_event_check_fails_at_its_entry(self):
        with pytest.raises(SpecError, match=r"^faults\[0\]: node 1 appears"
                           " in two partition groups"):
            load_spec(_GROUP + "faults:\n  - { at: 5, kind: partition,"
                      " groups: [[0, 1], [1, 2]] }\n")
        with pytest.raises(SpecError, match=r"^faults\[0\]\.groups: expected"
                           " a non-empty list"):
            load_spec(_GROUP + "faults:\n  - { at: 5, kind: partition,"
                      " groups: [] }\n")

    def test_a_section_check_names_its_key_once(self):
        with pytest.raises(SpecError,
                           match=r"^population\.users must be positive"):
            load_spec(_POPULATION.replace("users: 1000", "users: 0"))

    def test_a_bare_sample_tag_is_a_sample(self):
        spec = load_spec(_GROUP.replace(
            "{ sample: !account { number: 10 } }", "!account { number: 7 }"))
        assert spec.account_population() == 7

    @pytest.mark.parametrize("text, path", [
        ("workloads:\n  - number: 1\n    client: ~\n", "workloads[0].client"),
        (_GROUP.split("      behavior:")[0] + "      behavior: ~\n",
         "workloads[0].client.behavior"),
        (_GROUP.replace("load: { 0: 10, 10: 0 }", "load: ~"),
         "workloads[0].client.behavior[0].load"),
        (_GROUP.replace("!transfer", "~").replace(
            "            from: { sample: !account { number: 10 } }\n", ""),
         "workloads[0].client.behavior[0].interaction"),
    ])
    def test_a_null_section_fails_at_its_path(self, text, path):
        with pytest.raises(SpecError) as excinfo:
            load_spec(text)
        assert str(excinfo.value).startswith(f"{path}: ")

    def test_an_empty_list_fails_at_its_path(self):
        with pytest.raises(SpecError, match=r"^workloads\[0\]\.client\."
                           r"behavior: expected a non-empty list"):
            load_spec(_GROUP.split("      behavior:")[0]
                      + "      behavior: []\n")
