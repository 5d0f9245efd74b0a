"""Tests for the machine (instance type) model."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError, SimulationError
from repro.obs.metrics import MetricsRegistry
from repro.sim.machine import (
    C5_2XLARGE,
    C5_9XLARGE,
    C5_XLARGE,
    INSTANCE_TYPES,
    InstanceType,
    Machine,
    MemoryLedger,
)
from repro.sim.network import Endpoint


class TestInstanceTypes:
    def test_paper_instance_specs(self):
        # §5.1: c5.xlarge ... to c5.9xlarge (36 vCPUs, 72 GiB)
        assert C5_9XLARGE.vcpus == 36
        assert C5_9XLARGE.memory == 72 * 1024**3
        assert C5_2XLARGE.vcpus == 8
        assert C5_2XLARGE.memory == 16 * 1024**3
        assert C5_XLARGE.vcpus == 4

    def test_registry(self):
        assert INSTANCE_TYPES["c5.xlarge"] is C5_XLARGE

    def test_invalid_specs_rejected(self):
        with pytest.raises(ConfigurationError):
            InstanceType("bad", vcpus=0, memory=1)
        with pytest.raises(ConfigurationError):
            InstanceType("bad", vcpus=1, memory=0)


@pytest.fixture
def machine():
    return Machine(Endpoint("m", "ohio"), C5_XLARGE)


class TestCpu:
    def test_negative_cost_rejected(self, machine):
        with pytest.raises(SimulationError):
            machine.execute(-1.0)

    def test_counters(self):
        # the metrics sampler and the Prometheus dump read these two
        registry = MetricsRegistry()
        machine = Machine(Endpoint("m", "ohio"), C5_XLARGE,
                          metrics=registry.namespace("machine"))
        machine.execute(1.0)
        machine.execute(0.5)
        machine.execute(0.0)
        assert registry.value("machine.jobs_executed") == 3
        assert registry.value("machine.cpu_seconds") == 1.5


class TestMemoryLedger:

    def test_set_level_is_absolute(self):
        ledger = MemoryLedger(1000)
        ledger.set_level("consensus", 700)
        ledger.set_level("consensus", 200)
        ledger.set_level("state", 100)
        ledger.set_level("mempool", 0)
        assert ledger.level("consensus") == 200
        assert ledger.total == 300
        assert ledger.breakdown() == {"consensus": 200, "state": 100}

    def test_pressure_can_exceed_one(self):
        ledger = MemoryLedger(100)
        ledger.set_level("x", 250)
        assert ledger.pressure == pytest.approx(2.5)

    def test_hysteresis_between_water_marks(self):
        ledger = MemoryLedger(100, high_water=0.9, low_water=0.75)
        ledger.set_level("x", 89)
        assert ledger.state == "ok"
        ledger.set_level("x", 90)
        assert ledger.state == "high"
        # between low and high water: stays high (no flapping)
        ledger.set_level("x", 80)
        assert ledger.state == "high"
        ledger.set_level("x", 74)
        assert ledger.state == "ok"
        assert ledger.high_water_crossings == 1

    def test_peak_pressure_is_sticky(self):
        ledger = MemoryLedger(100)
        ledger.set_level("x", 95)
        ledger.set_level("x", 10)
        assert ledger.peak_pressure == pytest.approx(0.95)

    def test_negative_amounts_rejected(self):
        ledger = MemoryLedger(100)
        with pytest.raises(SimulationError):
            ledger.set_level("x", -1)

    def test_bad_configuration_rejected(self):
        with pytest.raises(ConfigurationError):
            MemoryLedger(0)
        with pytest.raises(ConfigurationError):
            MemoryLedger(100, high_water=0.5, low_water=0.9)

    def test_machine_memory_margin_scales_capacity(self):
        small = Machine(Endpoint("m", "ohio"), C5_XLARGE, memory_margin=0.5)
        assert small.memory.capacity == C5_XLARGE.memory // 2
        with pytest.raises(ConfigurationError):
            Machine(Endpoint("m", "ohio"), C5_XLARGE, memory_margin=0.0)

    def test_a_batch_evaluates_the_marks_after_each_category(self):
        # up past high water and back under low water inside one call:
        # the crossing and the peak count, as three set_level calls would
        ledger = MemoryLedger(100, high_water=0.9, low_water=0.75)
        ledger.set_levels((("mempool", 60), ("consensus", 40),
                           ("mempool", 0)))
        assert ledger.high_water_crossings == 1
        assert ledger.peak_pressure == pytest.approx(1.0)
        assert ledger.state == "ok"
        assert ledger.total == 40


CATEGORIES = ("mempool", "consensus", "state")


class ReferenceLedger:
    """The ledger before its total became a field: re-sum per category."""

    def __init__(self, capacity, high_water, low_water):
        self.capacity = capacity
        self.high_water = high_water
        self.low_water = low_water
        self.levels = {}
        self.high = False
        self.peak_pressure = 0.0
        self.high_water_crossings = 0

    def set_levels(self, pairs):
        if any(nbytes < 0 for _, nbytes in pairs):
            raise SimulationError("negative level")
        for category, nbytes in pairs:
            self.levels[category] = nbytes
            pressure = self.pressure
            self.peak_pressure = max(self.peak_pressure, pressure)
            if not self.high and pressure >= self.high_water:
                self.high = True
                self.high_water_crossings += 1
            elif self.high and pressure < self.low_water:
                self.high = False

    def level(self, category):
        return self.levels.get(category, 0)

    @property
    def total(self):
        return sum(self.levels.values())

    @property
    def pressure(self):
        return self.total / self.capacity

    @property
    def state(self):
        return "high" if self.high else "ok"


def observed(ledger):
    return (ledger.total, ledger.pressure, ledger.peak_pressure,
            ledger.state, ledger.high_water_crossings,
            [ledger.level(category) for category in CATEGORIES])


def call(ledger, method, argument):
    if method == "set_level":
        return ledger.set_level(*argument)
    return ledger.set_levels(argument)


@st.composite
def ledger_runs(draw):
    """A capacity, water marks and calls whose levels straddle both marks.

    Each category's level is drawn up to the whole capacity, so the three
    together range from empty to 3x overcommit and cross the marks both
    ways; a level is occasionally negative, anywhere in a batch.
    """
    capacity = draw(st.integers(1, 1000))
    low_water = draw(st.floats(0.05, 1.0))
    high_water = draw(st.floats(low_water, 1.0))
    negative = st.sampled_from([False] * 19 + [True])
    level = negative.flatmap(lambda it_is: st.integers(-3, -1) if it_is
                             else st.integers(0, capacity))
    pair = st.tuples(st.sampled_from(CATEGORIES), level)
    step = st.one_of(
        st.tuples(st.just("set_level"), pair),
        st.tuples(st.just("set_levels"),
                  st.lists(pair, min_size=1, max_size=5)))
    calls = draw(st.lists(step, min_size=4, max_size=30))
    return capacity, high_water, low_water, calls


class TestMemoryLedgerAgainstReference:
    @settings(max_examples=300, deadline=None)
    @example((100, 0.9, 0.75, [
        ("set_levels", [("mempool", 50), ("consensus", 45), ("state", -1)]),
        ("set_levels", [("mempool", 50), ("consensus", 45)]),
        ("set_level", ("consensus", 10)),
        ("set_levels", [("state", 95), ("state", 0), ("mempool", -2)]),
        ("set_levels", [("state", 95), ("state", 0)]),
    ]))
    @given(ledger_runs())
    def test_every_call_matches_a_resum_after_each_category(self, run):
        capacity, high_water, low_water, calls = run
        ledger = MemoryLedger(capacity, high_water, low_water)
        reference = ReferenceLedger(capacity, high_water, low_water)
        for method, argument in calls:
            pairs = [argument] if method == "set_level" else argument
            if any(nbytes < 0 for _, nbytes in pairs):
                before = observed(ledger)
                with pytest.raises(SimulationError):
                    call(ledger, method, argument)
                assert observed(ledger) == before
                continue
            returned = call(ledger, method, argument)
            if method == "set_levels":
                assert returned == ledger.pressure
            reference.set_levels(pairs)
            assert observed(ledger) == observed(reference)
