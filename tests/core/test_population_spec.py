"""Fail-fast validation of the ``population:`` workload section."""

from __future__ import annotations

import pytest

from repro.common.errors import SpecError
from repro.core.population import DEFAULT_COHORT, PopulationSpec
from repro.core.spec import (
    AccountSample,
    LoadSchedule,
    TransferSpec,
    WorkloadSpec,
    load_spec,
    population_from_dict,
    simple_population_spec,
    simple_spec,
)

INTERACTION = TransferSpec(AccountSample(100))
PER_USER = LoadSchedule.constant(0.001, 60.0)


def population(**overrides) -> PopulationSpec:
    kwargs = dict(users=10_000, interaction=INTERACTION, load=PER_USER)
    kwargs.update(overrides)
    return PopulationSpec(**kwargs)


POPULATION_YAML = """
population:
  users: 50000
  rate_per_user: 0.001
  duration: 60
  cohort: 500
  arrival: poisson
  interaction: !transfer
    from: { sample: !account { number: 100 } }
"""


class TestPopulationSpecValidation:
    def test_users_must_be_positive(self):
        with pytest.raises(SpecError, match="users must be positive"):
            population(users=0)

    def test_cohort_must_be_positive(self):
        with pytest.raises(SpecError, match="cohort must be positive"):
            population(cohort=0)

    def test_cohort_cannot_exceed_users(self):
        with pytest.raises(SpecError, match="cannot exceed"):
            population(users=100, cohort=101)

    def test_unknown_arrival_rejected(self):
        with pytest.raises(SpecError, match="unknown population.arrival"):
            population(arrival="weibull")

    def test_burst_envelope_must_be_mean_preserving(self):
        with pytest.raises(SpecError, match="must be < 1"):
            population(arrival="burst", burst_factor=10.0,
                       burst_fraction=0.2)

    def test_burst_fraction_bounds(self):
        with pytest.raises(SpecError, match="burst_fraction"):
            population(arrival="burst", burst_fraction=1.0)

    def test_cohort_defaults_capped_at_population(self):
        assert population(users=10).cohort_size == 10
        assert population(users=10 ** 6).cohort_size == DEFAULT_COHORT
        assert population(users=10 ** 6).aggregate_users == \
            10 ** 6 - DEFAULT_COHORT

    def test_offered_load_is_users_times_rate(self):
        assert population(users=10_000).offered_load() == \
            pytest.approx(10.0)


class TestWorkloadSpecExclusion:
    def test_population_and_workloads_mutually_exclusive(self):
        classic = simple_spec(INTERACTION, PER_USER, clients=2)
        with pytest.raises(SpecError, match="cannot declare both"):
            WorkloadSpec(classic.workloads, population=population())

    def test_neither_population_nor_workloads_rejected(self):
        with pytest.raises(SpecError, match="at least one workload"):
            WorkloadSpec(())

    def test_cohort_group_synthesized(self):
        spec = simple_population_spec(
            users=5_000, interaction=INTERACTION,
            rate_per_user=0.001, duration=30.0, cohort=200)
        (group,) = spec.client_groups()
        assert group.number == 200
        (behavior,) = group.client.behaviors
        # cohort members carry the per-user schedule verbatim — the
        # cohort-only byte-identity contract depends on this
        assert behavior.load.rate_at(10.0) == pytest.approx(0.001)
        assert spec.duration == pytest.approx(30.0)
        assert spec.offered_load() == pytest.approx(5.0)


class TestPopulationYaml:
    def test_yaml_round_trip(self):
        spec = load_spec(POPULATION_YAML)
        pop = spec.population
        assert pop is not None
        assert (pop.users, pop.cohort_size, pop.arrival) == \
            (50_000, 500, "poisson")
        assert pop.load.rate_at(30.0) == pytest.approx(0.001)
        assert spec.account_population() == 100

    def test_unknown_population_keys_rejected(self):
        with pytest.raises(SpecError, match="population.clients: unknown key"):
            population_from_dict({"users": 10, "interaction": {},
                                  "rate_per_user": 0.1, "duration": 10,
                                  "clients": 5})

    def test_load_and_shorthand_mutually_exclusive(self):
        raw = {"users": 10,
               "interaction": {"__kind__": "transfer",
                               "from": {"sample": AccountSample(10)}},
               "load": {0: 0.1, 10: 0},
               "rate_per_user": 0.1, "duration": 10}
        with pytest.raises(SpecError, match="not both"):
            population_from_dict(raw)

    def test_rate_profile_required(self):
        raw = {"users": 10,
               "interaction": {"__kind__": "transfer",
                               "from": {"sample": AccountSample(10)}}}
        with pytest.raises(SpecError, match="per-user rate profile"):
            population_from_dict(raw)

    def test_workloads_still_required_without_population(self):
        with pytest.raises(SpecError, match="at least one workload"):
            load_spec("deadline: 10\n")

    def test_population_alongside_workloads_rejected_at_parse(self):
        text = POPULATION_YAML + """
workloads:
  - number: 1
    client:
      location: { sample: !location [ ".*" ] }
      view: { sample: !endpoint [ ".*" ] }
      behavior:
        - interaction: !transfer
            from: { sample: !account { number: 10 } }
          load: { 0: 1, 10: 0 }
"""
        with pytest.raises(SpecError, match="cannot declare both"):
            load_spec(text)
