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


class TestBroadcastEquivalence:
    """``broadcast`` is ``send`` per destination, in order: two networks on
    the same seed, one fanned out and one sent to one by one, must agree
    on every delivery, every counter and where the jitter stream stands."""

    def _pair(self, seed):
        sides = []
        for _ in range(2):
            engine = Engine()
            registry = MetricsRegistry()
            net = Network(engine, RngFactory(seed),
                          metrics=registry.namespace("network"))
            sides.append((engine, net, registry))
        return sides

    def _fan_out(self, side, src, dsts, size, one_by_one):
        """Times returned, and (time, destination) as delivered."""
        engine, net, _ = side
        got = []
        arrive = lambda d: (lambda: got.append((engine.now, d.name)))
        if one_by_one:
            times = [net.send(src, d, size, arrive(d), "fan") for d in dsts]
        else:
            times = net.broadcast(src, [(d, arrive(d)) for d in dsts],
                                  size, "fan")
        return times, got

    def _assert_same(self, a, b):
        (engine_a, net_a, registry_a), (engine_b, net_b, registry_b) = a, b
        assert registry_a.sample() == registry_b.sample()
        assert engine_a.events_executed == engine_b.events_executed
        # the next jitter draw is the same one on both sides
        src, dst = Endpoint("x", "ohio"), Endpoint("y", "milan")
        assert (net_a.send(src, dst, 100, lambda: None)
                == net_b.send(src, dst, 100, lambda: None))

    def test_single_region_fan_out_matches_sequential_sends(self):
        fanned, sequential = self._pair(42)
        eps = spread_endpoints(7, ["ohio"])
        times_a, got_a = self._fan_out(fanned, eps[0], eps[1:], 600, False)
        times_b, got_b = self._fan_out(sequential, eps[0], eps[1:], 600, True)
        assert times_a == times_b
        fanned[0].run()
        sequential[0].run()
        assert got_a == got_b and len(got_a) == 6
        assert sorted(t for t, _ in got_a) == sorted(times_a)
        assert fanned[1].messages_sent == 6
        assert fanned[2].value("network.bytes_sent") == 3600
        self._assert_same(fanned, sequential)

    def test_three_regions_queue_behind_an_earlier_fan_out(self):
        fanned, sequential = self._pair(9)
        eps = spread_endpoints(10, ["ohio", "oregon", "tokyo"])
        src, dsts = eps[0], eps[1:]
        big = 2_000_000     # ~0.19 s on the 85.8 Mbps ohio->tokyo pipe
        results = []
        for side, one_by_one in ((fanned, False), (sequential, True)):
            first, _ = self._fan_out(side, src, dsts, big, one_by_one)
            second, got = self._fan_out(side, src, dsts, 600, one_by_one)
            side[0].run()
            results.append((first, second, got))
        assert results[0] == results[1]
        first, second, _ = results[0]
        # one pipe per region pair: three pipes, each FIFO across fan-outs
        assert [sorted(row) for row in fanned[1]._links.values()] == [
            ["ohio", "oregon", "tokyo"]]
        tokyo = [i for i, d in enumerate(dsts) if d.region == "tokyo"]
        assert first[tokyo[0]] < first[tokyo[1]] < first[tokyo[2]]
        assert (min(second[i] for i in tokyo)
                > 3 * big / bandwidth_between("ohio", "tokyo"))
        self._assert_same(fanned, sequential)

    def test_empty_fan_out_sends_nothing(self, engine):
        net = Network(engine)
        assert net.broadcast(Endpoint("a", "ohio"), [], 100) == []
        engine.run()
        assert net.messages_sent == 0 and engine.events_executed == 0

    def test_negative_size_rejected_before_any_delivery(self, engine):
        net = Network(engine)
        a, b = Endpoint("a", "ohio"), Endpoint("b", "ohio")
        with pytest.raises(NetworkError):
            net.broadcast(a, [(b, lambda: None)], -1)
        engine.run()
        assert engine.events_executed == 0
