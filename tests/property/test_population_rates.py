"""Property: population emission counts match the declared rate profile.

The aggregate lane collapses millions of users into per-tick counts; the
cohort lane runs them as ordinary clients. Whatever the population size,
tick, rate or split, both lanes must emit what the per-user rate profile
times their user count dictates — the deterministic arrival process
exactly (carry accumulator, error < 1 tx), the Poisson process to within
sampling error at a fixed seed.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blockchains.base import ExperimentScale
from repro.common.rng import RngFactory
from repro.core.interface import BlockchainConnector, Client
from repro.core.population import AggregateArrivals, PopulationSpec
from repro.core.secondary import Secondary
from repro.core.spec import (
    AccountSample,
    Behavior,
    LoadSchedule,
    TransferSpec,
)
from repro.sim.engine import Engine

INTERACTION = TransferSpec(AccountSample(10))


class CountingConnector(BlockchainConnector):
    """Counts per-lane emissions by the client they trigger under."""

    def __init__(self) -> None:
        self.cohort_emitted = 0
        self.aggregate_emitted = 0

    def create_client(self, name, location, endpoints):
        return Client(name, location, tuple(endpoints))

    def encode_batch(self, interaction, resource, t, count):
        return [object()] * count

    def trigger_batch(self, clients, encoded):
        aggregate = sum(client.name == "population" for client in clients)
        self.aggregate_emitted += aggregate
        self.cohort_emitted += len(clients) - aggregate
        return len(clients)


def run_population_secondary(spec: PopulationSpec, tick: float,
                             scale: float = 1.0, seed: int = 7):
    """One Secondary carrying both lanes of *spec*; returns the connector."""
    connector = CountingConnector()
    engine = Engine()
    experiment = ExperimentScale(scale)
    secondary = Secondary("sec-0", "ohio", engine, connector,
                          scale=experiment, tick=tick)
    cohort = [connector.create_client(f"c{i}", "ohio", ())
              for i in range(spec.cohort_size)]
    secondary.assign(cohort, Behavior(spec.interaction, spec.load))
    process = AggregateArrivals(spec, experiment.rate, tick,
                                RngFactory(seed).child("population"))
    secondary.assign_aggregate(process, spec.interaction)
    secondary.start()
    engine.run()
    return connector


def tick_grid_total(rate: float, users: int, duration: float,
                    tick: float, scale: float) -> float:
    """The exact offered transactions over the emission tick grid."""
    nticks = math.ceil(duration / tick - 1e-9)
    return rate * users * scale * tick * nticks


class TestDeterministicArrivalsExact:
    @given(users=st.integers(min_value=10, max_value=10_000_000),
           cohort=st.integers(min_value=1, max_value=8),
           rate=st.floats(min_value=1e-4, max_value=0.05,
                          allow_nan=False),
           duration=st.floats(min_value=1.0, max_value=30.0,
                              allow_nan=False),
           tick=st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
           scale=st.floats(min_value=0.01, max_value=1.0,
                           allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_both_lanes_match_the_rate_profile(self, users, cohort, rate,
                                               duration, tick, scale):
        spec = PopulationSpec(users=users, interaction=INTERACTION,
                              load=LoadSchedule.constant(rate, duration),
                              cohort=cohort, arrival="deterministic")
        connector = run_population_secondary(spec, tick, scale=scale)
        expected_aggregate = tick_grid_total(
            rate, spec.aggregate_users, duration, tick, scale)
        expected_cohort = tick_grid_total(
            rate, spec.cohort_size, duration, tick, scale)
        # carry accumulators truncate at most one transaction per lane
        assert abs(connector.aggregate_emitted - expected_aggregate) <= 1.0
        assert abs(connector.cohort_emitted - expected_cohort) <= 1.0

    @pytest.mark.xfail(strict=True, reason="the tick loop advances by"
                       " t += tick, which drifts and fires one tick too"
                       " many; ROADMAP item 2(a)")
    @pytest.mark.parametrize("users, rate, duration, tick", [
        (496, 0.03125, 1.0, 0.1),       # emits 17 against 15.47
        (139, 0.03125, 2.0, 1 / 3),     # emits 10 against 8.63
    ])
    def test_the_tick_grid_is_exact(self, users, rate, duration, tick):
        spec = PopulationSpec(users=users, interaction=INTERACTION,
                              load=LoadSchedule.constant(rate, duration),
                              cohort=1, arrival="deterministic")
        connector = run_population_secondary(spec, tick, scale=1.0)
        expected = tick_grid_total(rate, spec.aggregate_users, duration,
                                   tick, 1.0)
        assert abs(connector.aggregate_emitted - expected) <= 1.0

    @pytest.mark.parametrize("users, rate, duration, tick", [
        (38, 0.03125, 6.0, 0.9999999999999999),  # was off by 1.0625
        (49, 0.03125, 1.0000000000000002, 1.0),  # was off by 1.5
        (497, 0.03125, 5e-10, 1.0),              # no tick at all
    ])
    def test_a_duration_a_hair_past_a_tick_ends_on_it(self, users, rate,
                                                      duration, tick):
        # a duration within 1e-9 ticks past a tick boundary is float noise
        # on that boundary: the lane emits no tick beyond it
        spec = PopulationSpec(users=users, interaction=INTERACTION,
                              load=LoadSchedule.constant(rate, duration),
                              cohort=1, arrival="deterministic")
        connector = run_population_secondary(spec, tick, scale=1.0)
        expected = tick_grid_total(rate, spec.aggregate_users, duration,
                                   tick, 1.0)
        assert abs(connector.aggregate_emitted - expected) <= 1.0
        assert abs(connector.cohort_emitted
                   - tick_grid_total(rate, 1, duration, tick, 1.0)) <= 1.0


class TestPoissonArrivalsMean:
    def test_poisson_total_tracks_the_mean(self):
        # fixed seed: deterministic draw sequence, large lambda per tick
        spec = PopulationSpec(users=2_000_000, interaction=INTERACTION,
                              load=LoadSchedule.constant(0.001, 30.0),
                              cohort=1)
        connector = run_population_secondary(spec, tick=0.1, scale=1.0,
                                             seed=11)
        expected = tick_grid_total(0.001, spec.aggregate_users, 30.0,
                                   0.1, 1.0)
        relative_error = abs(connector.aggregate_emitted
                             - expected) / expected
        assert relative_error < 0.01

    def test_burst_envelope_preserves_the_mean(self):
        # with burst_length 0.5 s at fraction 0.1 the mean on/off cycle
        # is ~5 s, so a 2000 s horizon sees ~400 cycles and the sample
        # mean converges on the nominal rate (the envelope is
        # mean-preserving); the horizon only costs 20k stub ticks
        spec = PopulationSpec(users=2_000_000, interaction=INTERACTION,
                              load=LoadSchedule.constant(0.001, 2000.0),
                              cohort=1, arrival="burst",
                              burst_factor=4.0, burst_fraction=0.1,
                              burst_length=0.5)
        connector = run_population_secondary(spec, tick=0.1, scale=1.0,
                                             seed=11)
        expected = tick_grid_total(0.001, spec.aggregate_users, 2000.0,
                                   0.1, 1.0)
        relative_error = abs(connector.aggregate_emitted
                             - expected) / expected
        assert relative_error < 0.05

    def test_same_seed_same_counts(self):
        spec = PopulationSpec(users=500_000, interaction=INTERACTION,
                              load=LoadSchedule.constant(0.001, 10.0),
                              cohort=1)
        first = run_population_secondary(spec, tick=0.1, seed=5)
        second = run_population_secondary(spec, tick=0.1, seed=5)
        assert first.aggregate_emitted == second.aggregate_emitted
