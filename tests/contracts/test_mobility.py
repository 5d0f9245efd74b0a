"""``checkDistance`` against a pure-Python oracle, and its deploy-time state.

The driver positions are stored once, at deployment, as read-only
ndarrays; every call scans what ``ctx.load`` returns. These tests pin the
result of the scan for arbitrary customers, the gas of a call, and that
nothing but ``ctx.store`` can change contract state.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.chain.state import WorldState
from repro.chain.transaction import invoke
from repro.contracts.mobility import GRID_SIZE, make_uber_contract
from repro.vm.machines import geth_evm

BIG_GAS = 50_000_000
ADDRESS = "contract:ContractUber"
CORNERS = [(0, 0), (0, GRID_SIZE - 1), (GRID_SIZE - 1, 0),
           (GRID_SIZE - 1, GRID_SIZE - 1)]

#: gas of one successful call, measured before the positions became arrays
CALL_GAS = {100: 42_624, 10_000: 1_230_624}


def deploy(driver_count):
    vm, state = geth_evm(), WorldState()
    vm.deploy(state, make_uber_contract(driver_count))
    return vm, state


def check_distance(vm, state, customer):
    return vm.execute(state, invoke("rider", "ContractUber", "checkDistance",
                                    customer, gas_limit=BIG_GAS))


def closest_driver(drivers, customer):
    """(index, distance) by a plain scan; the lowest index wins a tie."""
    cx, cy = customer
    best_index, best_distance = 0, None
    for index, (x, y) in enumerate(drivers):
        distance = math.isqrt((x - cx) ** 2 + (y - cy) ** 2)
        if best_distance is None or distance < best_distance:
            best_index, best_distance = index, distance
    return best_index, best_distance


def customers(seed, count=50):
    rng = random.Random(seed)
    return CORNERS + [(rng.randrange(GRID_SIZE), rng.randrange(GRID_SIZE))
                      for _ in range(count)]


@pytest.mark.parametrize("driver_count", [100, 10_000])
class TestCheckDistanceOracle:
    def test_matches_a_pure_python_scan(self, driver_count):
        vm, state = deploy(driver_count)
        storage = state.storage(ADDRESS)
        drivers = [(int(x), int(y)) for x, y in zip(storage.get("xs"),
                                                    storage.get("ys"))]
        assert len(drivers) == driver_count
        for customer in customers(seed=driver_count):
            receipt = check_distance(vm, state, customer)
            assert receipt.ok
            index, distance = closest_driver(drivers, customer)
            assert receipt.return_value == distance
            (event,) = receipt.events
            assert event.name == "Matched"
            assert event.payload == ("rider", index, distance)

    def test_second_call_sees_the_same_drivers(self, driver_count):
        vm, state = deploy(driver_count)
        first = check_distance(vm, state, (1234, 8765))
        second = check_distance(vm, state, (1234, 8765))
        assert first.events[0].payload == second.events[0].payload
        assert first.return_value == second.return_value
        assert state.storage(ADDRESS).get("matches") == 2

    def test_call_gas_is_unchanged(self, driver_count):
        vm, state = deploy(driver_count)
        for customer in [(5000, 5000), (1, 2)]:
            receipt = check_distance(vm, state, customer)
            assert receipt.gas_used == CALL_GAS[driver_count]


class TestDeployTimeState:
    def test_positions_are_read_only_arrays(self):
        _, state = deploy(10_000)
        for key in ("xs", "ys"):
            positions = state.storage(ADDRESS).get(key)
            assert isinstance(positions, np.ndarray)
            assert not positions.flags.writeable
            with pytest.raises(ValueError):
                positions[0] = 1

    def test_calls_and_probes_leave_the_arrays_alone(self):
        vm, state = deploy(10_000)
        storage = state.storage(ADDRESS)
        xs, ys = storage.get("xs"), storage.get("ys")
        before = xs.copy(), ys.copy()
        tx = invoke("rider", "ContractUber", "checkDistance", (10, 20),
                    gas_limit=BIG_GAS)
        assert vm.execute(state, tx).ok
        assert storage.get("xs") is xs and storage.get("ys") is ys
        # the probe deploys the same Contract object into a scratch state
        status, gas = vm.probe_gas(state, tx)
        assert status.value == "success" and gas == CALL_GAS[10_000]
        assert storage.get("xs") is xs and storage.get("ys") is ys
        assert np.array_equal(xs, before[0])
        assert np.array_equal(ys, before[1])
        assert storage.get("matches") == 1
