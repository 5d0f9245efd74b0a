"""Tests for the metrics registry (counters, gauges, histograms, sampler)."""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigurationError, SimulationError
from repro.obs.metrics import MetricsRegistry, MetricsSampler
from repro.sim.engine import Engine


class TestCounter:
    def test_inc_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("chain.blocks")
        counter.inc()
        counter.inc(3)
        assert counter.value == 4

    def test_negative_inc_rejected(self):
        counter = MetricsRegistry().counter("c")
        with pytest.raises(SimulationError):
            counter.inc(-1)

    def test_get_or_create_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("a.b") is registry.counter("a.b")

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ConfigurationError):
            registry.gauge("x")

    def test_supplier_backed_counter(self):
        registry = MetricsRegistry()
        total = [0]
        counter = registry.namespace("pool").counter(
            "admitted", supplier=lambda: total[0])
        total[0] = 5
        assert counter.value == registry.value("pool.admitted") == 5
        assert registry.sample() == {"pool.admitted": 5}
        assert "# TYPE repro_pool_admitted counter" in registry.prometheus()
        with pytest.raises(SimulationError):
            counter.inc()


class TestGauge:
    def test_set_and_add(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(10)
        gauge.add(-3)
        assert gauge.value == 7

    def test_supplier_backed(self):
        backing = [1, 2, 3]
        gauge = MetricsRegistry().gauge("len", supplier=backing.__len__)
        assert gauge.value == 3
        backing.append(4)
        assert gauge.value == 4

    def test_supplier_backed_rejects_set(self):
        gauge = MetricsRegistry().gauge("len", supplier=lambda: 0)
        with pytest.raises(SimulationError):
            gauge.set(5)


class TestHistogram:
    def test_observe_and_stats(self):
        hist = MetricsRegistry().histogram("lat")
        for value in (1.0, 2.0, 3.0, 4.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.sum == pytest.approx(10.0)
        assert hist.mean == pytest.approx(2.5)
        assert hist.percentile(50) == pytest.approx(2.5)


class TestNamespace:
    def test_prefixes_names(self):
        registry = MetricsRegistry()
        ns = registry.namespace("mempool")
        ns.counter("admitted").inc()
        assert registry.value("mempool.admitted") == 1

    def test_counters_with_prefix(self):
        registry = MetricsRegistry()
        ns = registry.namespace("mempool")
        ns.counter("drops.capacity").inc(2)
        ns.counter("drops.quota").inc()
        assert ns.counters_with_prefix("drops") == {
            "capacity": 2, "quota": 1}


class TestSampleAndPrometheus:
    def test_sample_flat_dict(self):
        registry = MetricsRegistry()
        registry.counter("a").inc(5)
        registry.gauge("b").set(2)
        sample = registry.sample()
        assert sample["a"] == 5
        assert sample["b"] == 2

    def test_prometheus_text(self):
        registry = MetricsRegistry()
        registry.counter("chain.blocks_failed").inc(2)
        text = registry.prometheus(labels={"chain": "quorum"})
        assert "repro_chain_blocks_failed" in text
        assert 'chain="quorum"' in text
        assert "# TYPE" in text


class TestSampler:
    def test_samples_on_sim_clock(self):
        engine = Engine()
        registry = MetricsRegistry()
        counter = registry.counter("events")
        engine.schedule_at(2.5, counter.inc, label="bump")
        sampler = MetricsSampler(engine, registry, period=1.0)
        engine.run(until=5.0)
        sampler.stop()
        assert len(sampler.samples) >= 4
        before = [s for s in sampler.samples if s["t"] < 2.5]
        after = [s for s in sampler.samples if s["t"] > 2.5]
        assert all(s["events"] == 0 for s in before)
        assert all(s["events"] == 1 for s in after)

    def test_rejects_non_positive_period(self):
        with pytest.raises(ConfigurationError):
            MetricsSampler(Engine(), MetricsRegistry(), period=0.0)
