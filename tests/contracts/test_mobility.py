"""``checkDistance`` against a pure-Python oracle, and its deploy-time state.

The driver positions are stored once, at deployment, as read-only
ndarrays; a call scans what ``ctx.load`` returns, unless that is the
contract's own arrays and the customer is the one it matched last. These
tests pin the result of the scan for arbitrary customers, the gas of a
call, when the scan runs, and that nothing but ``ctx.store`` can change
contract state.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.chain.state import WorldState
from repro.chain.transaction import invoke
from repro.contracts import mobility
from repro.contracts.mobility import GRID_SIZE, make_uber_contract
from repro.vm.base import VirtualMachine
from repro.vm.machines import AVM_CAPS, EBPF_CAPS, MOVE_VM_CAPS, geth_evm

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


def stored_drivers(state):
    storage = state.storage(ADDRESS)
    return [(int(x), int(y)) for x, y in zip(storage.get("xs"),
                                             storage.get("ys"))]


def redeploy(vm):
    """What ``probe_gas`` does: the same Contract object, a scratch state."""
    probe_vm = VirtualMachine(vm.capabilities, vm.schedule,
                              vm.gas_per_cpu_second)
    scratch = WorldState()
    probe_vm.deploy(scratch, vm.deployed("ContractUber").contract)
    return probe_vm, scratch


def frozen(array):
    array = np.array(array)
    array.flags.writeable = False
    return array


@pytest.fixture
def scans(monkeypatch):
    """The customers each ``_nearest_driver`` call scanned for, in order."""
    seen = []
    scan = mobility._nearest_driver

    def spy(xs, ys, customer_x, customer_y):
        seen.append((customer_x, customer_y))
        return scan(xs, ys, customer_x, customer_y)

    monkeypatch.setattr(mobility, "_nearest_driver", spy)
    return seen


def test_one_call_exceeds_every_hard_budget_in_order():
    # Fig. 5: AVM < eBPF < MoveVM < one 10,000-driver call (geth has none)
    assert (AVM_CAPS.hard_budget < EBPF_CAPS.hard_budget
            < MOVE_VM_CAPS.hard_budget < CALL_GAS[10_000])


@pytest.mark.parametrize("driver_count", [100, 10_000])
class TestCheckDistanceOracle:
    def test_matches_a_pure_python_scan(self, driver_count):
        vm, state = deploy(driver_count)
        drivers = stored_drivers(state)
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


class TestScanMemo:
    """A contract remembers one customer's match against its own arrays.

    The memo changes when the scan runs, never what a call returns, emits
    or charges: every call is held to the ``isqrt`` oracle and
    :data:`CALL_GAS` whatever the memo held before it.
    """

    @pytest.mark.parametrize("driver_count", [100, 10_000])
    @pytest.mark.parametrize("sequence", ["AAAA", "ABABAB", "AABBBAB"])
    def test_repeated_and_alternating_customers_match_the_oracle(
            self, driver_count, sequence):
        vm, state = deploy(driver_count)
        drivers = stored_drivers(state)
        probe_vm, scratch = redeploy(vm)
        named = {"A": (5000, 5000), "B": (17, 9876)}
        for letter in sequence:
            customer = named[letter]
            index, distance = closest_driver(drivers, customer)
            for target_vm, target_state in ((vm, state),
                                            (probe_vm, scratch)):
                receipt = check_distance(target_vm, target_state, customer)
                assert receipt.ok
                assert receipt.gas_used == CALL_GAS[driver_count]
                assert receipt.return_value == distance
                (event,) = receipt.events
                assert (event.name, event.payload) == (
                    "Matched", ("rider", index, distance))
            tx = invoke("rider", "ContractUber", "checkDistance", customer,
                        gas_limit=BIG_GAS)
            status, gas = vm.probe_gas(state, tx)
            assert status.value == "success"
            assert gas == CALL_GAS[driver_count]
        assert state.storage(ADDRESS).get("matches") == len(sequence)

    def test_other_stored_positions_are_scanned(self, scans):
        vm, state = deploy(100)
        storage = state.storage(ADDRESS)
        xs, ys = storage.get("xs"), storage.get("ys")
        customer = (1234, 8765)
        own = check_distance(vm, state, customer).events[0].payload
        assert scans == [customer]
        # a different frozen xs: scanned, and its own answer comes back
        shifted = frozen((xs + GRID_SIZE // 2) % GRID_SIZE)
        storage.put("xs", shifted)
        index, distance = closest_driver(
            [(int(x), int(y)) for x, y in zip(shifted, ys)], customer)
        payload = check_distance(vm, state, customer).events[0].payload
        assert payload == ("rider", index, distance)
        assert payload != own
        assert scans == [customer] * 2
        # an equal copy is not the contract's own array either
        storage.put("xs", frozen(xs))
        assert check_distance(vm, state, customer).events[0].payload == own
        assert scans == [customer] * 3
        # the contract's own arrays again: the memo answers
        storage.put("xs", xs)
        assert check_distance(vm, state, customer).events[0].payload == own
        assert scans == [customer] * 3

    def test_identical_calls_scan_once(self, scans):
        vm, state = deploy(10_000)
        for _ in range(1000):
            assert check_distance(vm, state, (5000, 5000)).ok
        assert scans == [(5000, 5000)]

    def test_alternating_calls_scan_every_time(self, scans):
        vm, state = deploy(10_000)
        pair = [(5000, 5000), (17, 9876)]
        for step in range(1000):
            assert check_distance(vm, state, pair[step % 2]).ok
        assert scans == pair * 500

    def test_the_memo_belongs_to_one_contract(self, scans):
        for _ in range(2):
            vm, state = deploy(100)
            assert check_distance(vm, state, (5000, 5000)).ok
        assert scans == [(5000, 5000)] * 2
