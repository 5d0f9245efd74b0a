"""Tests for the simulated WAN (Table 3 topology)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.errors import NetworkError
from repro.common.rng import RngFactory
from repro.obs.metrics import MetricsRegistry
from repro.sim.engine import Engine
from repro.sim.network import (
    REGIONS,
    Endpoint,
    Network,
    bandwidth_between,
    bandwidth_matrix,
    rtt_between,
    rtt_matrix,
    spread_endpoints,
)


class TestTopologyMatrices:
    def test_ten_regions(self):
        assert len(REGIONS) == 10
        assert "ohio" in REGIONS and "cape-town" in REGIONS

    def test_rtt_matrix_is_symmetric(self):
        matrix = rtt_matrix()
        assert np.allclose(matrix, matrix.T)

    def test_bandwidth_matrix_is_symmetric(self):
        matrix = bandwidth_matrix()
        assert np.allclose(matrix, matrix.T)

    def test_paper_rtt_values(self):
        # spot checks against Table 3 (bottom-left, ms)
        assert rtt_between("tokyo", "cape-town") == pytest.approx(0.354)
        assert rtt_between("oregon", "ohio") == pytest.approx(0.0552)
        assert rtt_between("sydney", "cape-town") == pytest.approx(0.4104)

    def test_paper_bandwidth_values(self):
        # spot checks against Table 3 (top-right, Mbps -> bytes/s)
        assert bandwidth_between("cape-town", "tokyo") == pytest.approx(
            26.1e6 / 8)
        assert bandwidth_between("ohio", "oregon") == pytest.approx(105e6 / 8)

    def test_intra_region_is_datacenter_grade(self):
        assert rtt_between("ohio", "ohio") == pytest.approx(0.001)
        assert bandwidth_between("ohio", "ohio") == pytest.approx(10e9 / 8)

    def test_unknown_region_rejected(self):
        with pytest.raises(NetworkError):
            rtt_between("ohio", "mars")

    def test_all_pairs_complete(self):
        matrix = rtt_matrix()
        assert (matrix > 0).all()


class TestMatrixCaching:
    """The topology is static; the matrices are built once at import."""

    def test_accessors_return_fresh_copies(self):
        a, b = rtt_matrix(), rtt_matrix()
        assert a is not b
        assert (a == b).all()

    def test_mutating_a_copy_does_not_leak(self):
        mutated = rtt_matrix()
        before = rtt_between("tokyo", "cape-town")
        mutated[:] = 0.0
        assert rtt_between("tokyo", "cape-town") == before
        bw = bandwidth_matrix()
        bw_before = bandwidth_between("ohio", "oregon")
        bw[:] = 1.0
        assert bandwidth_between("ohio", "oregon") == bw_before

    def test_between_matches_matrix_exactly(self):
        rtt, bw = rtt_matrix(), bandwidth_matrix()
        for i, a in enumerate(REGIONS):
            for j, b in enumerate(REGIONS):
                assert rtt_between(a, b) == float(rtt[i, j])
                assert bandwidth_between(a, b) == float(bw[i, j])


class TestEndpoint:
    def test_valid_region(self):
        Endpoint("n", "tokyo")

    def test_invalid_region_rejected(self):
        with pytest.raises(NetworkError):
            Endpoint("n", "nowhere")


class TestSpreadEndpoints:
    def test_spread_equally(self):
        endpoints = spread_endpoints(20, ["ohio", "tokyo"])
        regions = [e.region for e in endpoints]
        assert regions.count("ohio") == 10
        assert regions.count("tokyo") == 10

    def test_uneven_spread_is_round_robin(self):
        endpoints = spread_endpoints(5, ["ohio", "tokyo"])
        assert [e.region for e in endpoints] == [
            "ohio", "tokyo", "ohio", "tokyo", "ohio"]

    def test_names_are_unique(self):
        endpoints = spread_endpoints(200, REGIONS)
        assert len({e.name for e in endpoints}) == 200

    def test_empty_regions_rejected(self):
        with pytest.raises(NetworkError):
            spread_endpoints(3, [])


class TestDelivery:
    def test_delivery_after_half_rtt(self, engine):
        net = Network(engine, jitter_cv=0.0, model_bandwidth=False)
        src, dst = Endpoint("a", "ohio"), Endpoint("b", "tokyo")
        seen = []
        net.send(src, dst, 0, lambda: seen.append(engine.now))
        engine.run()
        assert seen[0] == pytest.approx(0.1318 / 2, rel=1e-6)

    def test_larger_messages_arrive_later(self, engine):
        net = Network(engine, jitter_cv=0.0)
        src, dst = Endpoint("a", "ohio"), Endpoint("b", "sao-paulo")
        times = {}
        net.send(src, dst, 100, lambda: times.setdefault("small", engine.now))
        net2 = Network(Engine(), jitter_cv=0.0)
        # fresh network so the pipe is not shared between the two sends
        eng2 = net2.engine
        net2.send(src, dst, 10_000_000,
                  lambda: times.setdefault("big", eng2.now))
        engine.run()
        eng2.run()
        assert times["big"] > times["small"]

    def test_bandwidth_pipe_queues_messages(self, engine):
        net = Network(engine, jitter_cv=0.0)
        src, dst = Endpoint("a", "ohio"), Endpoint("b", "cape-town")
        arrivals = []
        size = 1_000_000  # ~0.18 s of transfer at 43.6 Mbps
        for _ in range(3):
            net.send(src, dst, size, lambda: arrivals.append(engine.now))
        engine.run()
        gaps = np.diff(sorted(arrivals))
        expected_transfer = size / (43.6e6 / 8)
        assert all(g == pytest.approx(expected_transfer, rel=0.05)
                   for g in gaps)

    def test_jitter_is_deterministic_per_seed(self):
        def one_run(seed):
            engine = Engine()
            net = Network(engine, RngFactory(seed))
            src, dst = Endpoint("a", "ohio"), Endpoint("b", "milan")
            seen = []
            for _ in range(5):
                net.send(src, dst, 100, lambda: seen.append(engine.now))
            engine.run()
            return seen

        assert one_run(7) == one_run(7)
        assert one_run(7) != one_run(8)

    def test_negative_size_rejected(self, engine):
        net = Network(engine)
        with pytest.raises(NetworkError):
            net.send(Endpoint("a", "ohio"), Endpoint("b", "ohio"), -1,
                     lambda: None)

    def test_counters(self, engine):
        registry = MetricsRegistry()
        net = Network(engine, metrics=registry.namespace("network"))
        src, dst = Endpoint("a", "ohio"), Endpoint("b", "ohio")
        net.send(src, dst, 500, lambda: None)
        net.send(src, dst, 700, lambda: None)
        assert net.messages_sent == 2
        assert registry.value("network.bytes_sent") == 1200
