"""Tests for the analytic consensus performance models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.consensus.models import (
    BlockAttempt,
    CliquePerf,
    CommitteePerf,
    DAGPerf,
    LeaderBFTPerf,
    PoHPerf,
    WanProfile,
)
from repro.sim.deployment import COMMUNITY, CONSORTIUM, DATACENTER, DEVNET
from repro.sim.network import INTRA_REGION_RTT, REGIONS, rtt_matrix


def profile_for(config):
    return WanProfile(config.node_regions())


def attempt(tx_count=100, payload=11_000, exec_cpu=0.01, backlog=0,
            region="ohio", arrival=0.0):
    return BlockAttempt(tx_count=tx_count, payload_bytes=payload,
                        exec_cpu_seconds=exec_cpu, backlog=backlog,
                        leader_region=region, arrival_rate=arrival)


class TestWanProfile:
    def test_datacenter_rtts_are_tiny(self):
        profile = profile_for(DATACENTER)
        assert profile.rtt_quantile(0.66) == pytest.approx(0.001)

    def test_geo_rtts_are_large(self):
        profile = profile_for(DEVNET)
        assert profile.rtt_quantile(0.66) > 0.1

    def test_quantiles_are_monotonic(self):
        profile = profile_for(COMMUNITY)
        assert (profile.rtt_quantile(0.5) <= profile.rtt_quantile(0.66)
                <= profile.rtt_quantile(0.9))

    def test_dissemination_grows_with_payload(self):
        profile = profile_for(DEVNET)
        small = profile.dissemination_time(1_000, "ohio")
        large = profile.dissemination_time(10_000_000, "ohio")
        assert large > small

    def test_flat_dissemination_costs_more_than_tree(self):
        profile = profile_for(COMMUNITY)
        tree = profile.dissemination_time(100_000, "ohio", flat=False)
        flat = profile.dissemination_time(100_000, "ohio", flat=True)
        assert flat > tree

    def test_relay_cap_bounds_flat_cost(self):
        profile = profile_for(COMMUNITY)
        capped = profile.dissemination_time(100_000, "ohio", flat=True,
                                            relay_cap=2)
        uncapped = profile.dissemination_time(100_000, "ohio", flat=True,
                                              relay_cap=100)
        assert capped < uncapped

def pairwise_rtts(node_regions):
    """Every ordered pair of distinct validators, straight off Table 3."""
    rtt = rtt_matrix()
    index = [REGIONS.index(region) for region in node_regions]
    return [rtt[i, j] for a, i in enumerate(index)
            for b, j in enumerate(index) if a != b]


class TestWanProfileStatistics:
    """The per-profile statistics are computed once and stay the values
    ``np.quantile`` and the per-block count gave."""

    QUANTILES = (0.5, 0.66, 0.9)

    def test_quantiles_of_a_200_node_placement(self):
        placement = CONSORTIUM.node_regions()
        assert len(placement) == 200
        profile = WanProfile(placement)
        pairs = pairwise_rtts(placement)
        assert len(pairs) == 200 * 199
        for q in self.QUANTILES:
            expected = float(np.quantile(pairs, q))
            assert profile.rtt_quantile(q) == expected
            assert profile.rtt_quantile(q) == expected   # the repeated ask

    def test_quantiles_of_a_single_node(self):
        profile = WanProfile(["tokyo"])
        for q in self.QUANTILES:
            assert profile.rtt_quantile(q) == float(
                np.quantile([INTRA_REGION_RTT], q))

    def test_profiles_do_not_share_statistics(self):
        near = WanProfile(["ohio", "ohio", "oregon"])
        far = WanProfile(["ohio", "sydney", "cape-town"])
        for q in self.QUANTILES:
            assert near.rtt_quantile(q) == float(
                np.quantile(pairwise_rtts(near.node_regions), q))
            assert far.rtt_quantile(q) == float(
                np.quantile(pairwise_rtts(far.node_regions), q))
            assert near.rtt_quantile(q) < far.rtt_quantile(q)

    def test_dissemination_on_a_mixed_placement_is_unchanged(self):
        # flat mode multiplies by the per-region validator count (capped)
        profile = WanProfile(["ohio"] * 5 + ["tokyo"] * 3 + ["sydney"]
                             + ["milan"] * 2)
        assert profile.dissemination_time(250_000, "ohio") == (
            0.12973771929824562)
        assert profile.dissemination_time(250_000, "ohio", flat=True) == (
            0.13653006993006994)
        assert profile.dissemination_time(250_000, "sydney") == (
            0.16726981132075472)
        assert profile.dissemination_time(250_000, "sydney", flat=True) == (
            0.23500087719298246)
        assert profile.dissemination_time(
            250_000, "sydney", flat=True, relay_cap=2) == 0.21443962264150945


class TestOverloadCurves:
    def test_no_stress_no_penalty(self):
        model = LeaderBFTPerf(profile_for(DATACENTER), overload_gamma=1.0)
        assert model.payload_factor(backlog=0, block_capacity=100) == 1.0
        assert model.payload_factor(backlog=100, block_capacity=100) == 1.0

    def test_gamma_one_halves_per_doubling(self):
        model = LeaderBFTPerf(profile_for(DATACENTER), overload_gamma=1.0)
        factor = model.payload_factor(backlog=300, block_capacity=100)
        assert factor == pytest.approx(1 / 3)

    def test_small_gamma_degrades_gently(self):
        gentle = CommitteePerf(profile_for(DATACENTER), overload_gamma=0.1)
        harsh = LeaderBFTPerf(profile_for(DATACENTER), overload_gamma=1.0)
        assert (gentle.payload_factor(1000, 100)
                > harsh.payload_factor(1000, 100))

    def test_negative_gamma_packs_blocks_fuller(self):
        # Avalanche under overload: throughput *rises* (§6.3, x1.38)
        model = DAGPerf(profile_for(DATACENTER), overload_gamma=-0.06,
                        packing_cap=1.5)
        factor = model.payload_factor(10_000, 100)
        assert 1.0 < factor <= 1.5

    def test_payload_floor(self):
        model = LeaderBFTPerf(profile_for(DATACENTER), overload_gamma=1.0,
                              payload_floor=0.25)
        assert model.payload_factor(10**6, 100) == 0.25


class TestLeaderBFT:
    def test_round_latency_grows_with_rtt(self):
        local = LeaderBFTPerf(profile_for(DATACENTER))
        geo = LeaderBFTPerf(profile_for(DEVNET))
        assert geo.round_latency(attempt()) > local.round_latency(attempt())

    def test_pool_overhead_slows_rounds(self):
        model = LeaderBFTPerf(profile_for(DATACENTER),
                              pool_overhead_per_tx=20e-6)
        fast = model.round_latency(attempt(backlog=0))
        slow = model.round_latency(attempt(backlog=100_000))
        assert slow - fast == pytest.approx(2.0, rel=0.01)

    def test_admission_overhead_tracks_arrival_rate(self):
        model = LeaderBFTPerf(profile_for(DATACENTER),
                              admission_cpu_per_tx=100e-6)
        calm = model.round_latency(attempt(arrival=0))
        stormy = model.round_latency(attempt(arrival=10_000))
        assert stormy - calm == pytest.approx(1.0, rel=0.01)

    def test_view_change_on_timeout(self):
        model = LeaderBFTPerf(profile_for(DATACENTER), round_timeout=0.5,
                              pool_overhead_per_tx=1e-3)
        outcome = model.decide(attempt(backlog=2_000))  # 2 s round > 0.5 s
        assert outcome.view_changes >= 1
        assert outcome.latency > 0.5

    def test_view_change_cascade_gives_up(self):
        model = LeaderBFTPerf(profile_for(DATACENTER), round_timeout=0.1,
                              max_timeout=0.2, pool_overhead_per_tx=1.0)
        outcome = model.decide(attempt(backlog=10_000))
        assert not outcome.committed
        assert outcome.view_changes == 8

    def test_timeout_resets_after_clean_round(self):
        model = LeaderBFTPerf(profile_for(DATACENTER), round_timeout=0.5,
                              pool_overhead_per_tx=1e-3)
        model.decide(attempt(backlog=2_000))   # forces a view change
        clean = model.decide(attempt(backlog=0))
        assert clean.view_changes == 0
        assert model._current_timeout == 0.5

    def test_pipeline_shortens_cadence(self):
        pipelined = LeaderBFTPerf(profile_for(DATACENTER), pipeline_depth=3.0,
                                  min_block_interval=0.01)
        serial = LeaderBFTPerf(profile_for(DATACENTER), pipeline_depth=1.0,
                               min_block_interval=0.01)
        assert (pipelined.next_block_delay(0.9)
                == pytest.approx(serial.next_block_delay(0.9) / 3))

    def test_view_change_flushes_pipeline(self):
        model = LeaderBFTPerf(profile_for(DATACENTER), pipeline_depth=3.0,
                              round_timeout=0.5, pool_overhead_per_tx=1e-3,
                              min_block_interval=0.01)
        model.decide(attempt(backlog=2_000))
        assert model.next_block_delay(0.9) == pytest.approx(0.9)

    def test_per_node_overhead_penalises_large_networks(self):
        small = LeaderBFTPerf(profile_for(DATACENTER), per_node_overhead=3e-3)
        large = LeaderBFTPerf(profile_for(COMMUNITY), per_node_overhead=3e-3)
        delta = (large.round_latency(attempt(region="ohio"))
                 - small.round_latency(attempt(region="ohio")))
        assert delta > 0.5  # 190 extra nodes x 3 ms


class TestFixedCadenceModels:
    def test_clique_period(self):
        model = CliquePerf(profile_for(DEVNET), period=5.0)
        assert model.next_block_delay(99.0) == 5.0

    def test_dag_period(self):
        model = DAGPerf(profile_for(DEVNET), block_period=1.9)
        assert model.next_block_delay(99.0) == 1.9

    def test_poh_slot(self):
        model = PoHPerf(profile_for(DEVNET), slot_duration=0.4)
        assert model.next_block_delay(99.0) == 0.4

    def test_committee_round_floor(self):
        model = CommitteePerf(profile_for(DATACENTER), min_round=3.6)
        outcome = model.decide(attempt())
        assert outcome.latency >= 3.6

    def test_dag_latency_includes_polling(self):
        fast = DAGPerf(profile_for(DATACENTER), beta=2)
        slow = DAGPerf(profile_for(DEVNET), beta=20)
        assert (slow.decide(attempt()).latency
                > fast.decide(attempt()).latency)

    def test_all_fixed_models_always_commit(self):
        for model in (CliquePerf(profile_for(DEVNET)),
                      DAGPerf(profile_for(DEVNET)),
                      PoHPerf(profile_for(DEVNET)),
                      CommitteePerf(profile_for(DEVNET))):
            assert model.decide(attempt()).committed
