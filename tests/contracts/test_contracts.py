"""Tests for the five DApp contracts (§3)."""

from __future__ import annotations

import pytest

from repro.chain.receipt import ExecStatus
from repro.chain.state import WorldState
from repro.chain.transaction import invoke
from repro.common.errors import StateLimitError
from repro.contracts.exchange import STOCKS, make_exchange_contract
from repro.contracts.gaming import MAP_SIZE, PLAYER_COUNT, make_dota_contract
from repro.contracts.mobility import (
    DISTANCE_ITERATION_GAS,
    DRIVER_COUNT,
    make_uber_contract,
)
from repro.contracts.videoshare import make_youtube_contract
from repro.contracts.webservice import make_counter_contract
from repro.vm.machines import avm, ebpf_vm, geth_evm, move_vm

BIG_GAS = 50_000_000


def deploy(vm_factory, contract_factory):
    vm = vm_factory()
    state = WorldState()
    vm.deploy(state, contract_factory())
    return vm, state


class TestExchange:
    def test_buy_decrements_supply_and_emits(self):
        vm, state = deploy(geth_evm, lambda: make_exchange_contract(supply=10))
        receipt = vm.execute(state, invoke(
            "a", "ExchangeContractGafam", "buyApple", gas_limit=BIG_GAS))
        assert receipt.ok
        assert receipt.return_value == 9
        assert receipt.events[0].name == "BoughtApple"

    def test_all_five_stocks_have_buy_functions(self):
        contract = make_exchange_contract()
        for stock in STOCKS:
            assert f"buy{stock.capitalize()}" in contract.functions()

    def test_check_stock(self):
        vm, state = deploy(geth_evm, lambda: make_exchange_contract(supply=5))
        receipt = vm.execute(state, invoke(
            "a", "ExchangeContractGafam", "checkStock", ("google",),
            gas_limit=BIG_GAS))
        assert receipt.return_value == 5

    def test_sold_out_stock_reverts(self):
        vm, state = deploy(geth_evm, lambda: make_exchange_contract(supply=1))
        first = vm.execute(state, invoke(
            "a", "ExchangeContractGafam", "buyGoogle", gas_limit=BIG_GAS))
        assert first.ok
        second = vm.execute(state, invoke(
            "a", "ExchangeContractGafam", "buyGoogle", gas_limit=BIG_GAS))
        assert second.status is ExecStatus.REVERTED
        assert "no google stock" in second.error

    def test_stocks_are_independent(self):
        vm, state = deploy(geth_evm, lambda: make_exchange_contract(supply=1))
        vm.execute(state, invoke("a", "ExchangeContractGafam", "buyGoogle",
                                 gas_limit=BIG_GAS))
        other = vm.execute(state, invoke(
            "a", "ExchangeContractGafam", "buyApple", gas_limit=BIG_GAS))
        assert other.ok


class TestGaming:
    def test_update_moves_players(self):
        vm, state = deploy(geth_evm, make_dota_contract)
        before = vm.execute(state, invoke(
            "a", "DecentralizedDota", "positions", gas_limit=BIG_GAS))
        vm.execute(state, invoke("a", "DecentralizedDota", "update", (3, 2),
                                 gas_limit=BIG_GAS))
        after = vm.execute(state, invoke(
            "a", "DecentralizedDota", "positions", gas_limit=BIG_GAS))
        assert before.return_value != after.return_value

    def test_players_stay_on_the_map(self):
        # "they turn back whenever they reach the limit of the map" (§3)
        vm, state = deploy(geth_evm, make_dota_contract)
        for _ in range(300):
            vm.execute(state, invoke("a", "DecentralizedDota", "update",
                                     (7, 11), gas_limit=BIG_GAS))
        receipt = vm.execute(state, invoke(
            "a", "DecentralizedDota", "positions", gas_limit=BIG_GAS))
        xs, ys = receipt.return_value
        assert len(xs) == PLAYER_COUNT
        assert all(0 <= x <= MAP_SIZE for x in xs)
        assert all(0 <= y <= MAP_SIZE for y in ys)

    def test_runs_on_every_vm(self):
        # Fig. 2 shows all chains executing the gaming DApp
        for factory in (geth_evm, avm, move_vm, ebpf_vm):
            vm, state = deploy(factory, make_dota_contract)
            receipt = vm.execute(state, invoke(
                "a", "DecentralizedDota", "update", (1, 1), gas_limit=BIG_GAS))
            assert receipt.ok, factory.__name__


class TestWebService:
    def test_add_increments(self):
        vm, state = deploy(geth_evm, make_counter_contract)
        for expected in (1, 2, 3):
            receipt = vm.execute(state, invoke("a", "Counter", "add",
                                               gas_limit=BIG_GAS))
            assert receipt.return_value == expected

    def test_get_reads_count(self):
        vm, state = deploy(geth_evm, make_counter_contract)
        vm.execute(state, invoke("a", "Counter", "add", gas_limit=BIG_GAS))
        receipt = vm.execute(state, invoke("a", "Counter", "get",
                                           gas_limit=BIG_GAS))
        assert receipt.return_value == 1

    def test_runs_on_every_vm(self):
        for factory in (geth_evm, avm, move_vm, ebpf_vm):
            vm, state = deploy(factory, make_counter_contract)
            assert vm.execute(state, invoke("a", "Counter", "add",
                                            gas_limit=BIG_GAS)).ok


class TestMobility:
    def test_check_distance_on_geth(self):
        vm, state = deploy(geth_evm, make_uber_contract)
        receipt = vm.execute(state, invoke(
            "a", "ContractUber", "checkDistance", (5000, 5000),
            gas_limit=BIG_GAS))
        assert receipt.ok
        assert receipt.return_value >= 0
        assert receipt.events[0].name == "Matched"

    def test_call_gas_exceeds_every_hard_budget(self):
        # the Fig. 5 criterion
        from repro.vm.machines import AVM_CAPS, EBPF_CAPS, MOVE_VM_CAPS
        loop_gas = DRIVER_COUNT * DISTANCE_ITERATION_GAS
        for caps in (AVM_CAPS, MOVE_VM_CAPS, EBPF_CAPS):
            assert loop_gas > caps.hard_budget

    def test_budget_exceeded_on_restricted_vms(self):
        # "the client reports an error of type 'budget exceeded'" (§6.4)
        for factory in (avm, move_vm, ebpf_vm):
            vm, state = deploy(factory, make_uber_contract)
            receipt = vm.execute(state, invoke(
                "a", "ContractUber", "checkDistance", (1, 2),
                gas_limit=BIG_GAS))
            assert receipt.status is ExecStatus.BUDGET_EXCEEDED, factory.__name__

    def test_closest_driver_is_found(self):
        vm, state = deploy(geth_evm, lambda: make_uber_contract(driver_count=100))
        receipt = vm.execute(state, invoke(
            "a", "ContractUber", "checkDistance", (0, 0), gas_limit=BIG_GAS))
        assert receipt.ok
        # distance to the closest of 100 drivers on a 10k grid is small
        assert receipt.return_value < 10_000

    def test_avm_single_driver_mode(self):
        # "the PyTeal implementation of ContractUber only stores the
        # position of one driver" (§3); budget still trips on the loop
        vm, state = deploy(avm, make_uber_contract)
        storage = state.storage("contract:ContractUber")
        assert storage.get("mode") == "single"
        assert "xs" not in storage.data

    def test_match_counter_increments(self):
        vm, state = deploy(geth_evm, make_uber_contract)
        vm.execute(state, invoke("a", "ContractUber", "checkDistance",
                                 (1, 1), gas_limit=BIG_GAS))
        receipt = vm.execute(state, invoke("a", "ContractUber", "matches",
                                           gas_limit=BIG_GAS))
        assert receipt.return_value == 1


class TestVideoShare:
    def test_upload_assigns_uploader_and_emits(self):
        vm, state = deploy(geth_evm, make_youtube_contract)
        receipt = vm.execute(state, invoke(
            "alice", "DecentralizedYoutube", "upload", ("cat-video",),
            gas_limit=BIG_GAS))
        assert receipt.ok
        assert receipt.return_value == 1
        storage = state.storage("contract:DecentralizedYoutube")
        assert storage.get("video:1").startswith("alice:cat-video")
        assert receipt.events[0].name == "Uploaded"

    def test_uploads_count(self):
        vm, state = deploy(geth_evm, make_youtube_contract)
        for _ in range(3):
            vm.execute(state, invoke("a", "DecentralizedYoutube", "upload",
                                     ("v",), gas_limit=BIG_GAS))
        receipt = vm.execute(state, invoke(
            "a", "DecentralizedYoutube", "count", gas_limit=BIG_GAS))
        assert receipt.return_value == 3

    def test_cannot_deploy_on_avm(self):
        # §5.2: "we could not implement the video sharing DApp in Teal as we
        # needed data structures that were too large"
        vm = avm()
        with pytest.raises(StateLimitError):
            vm.deploy(WorldState(), make_youtube_contract())

    def test_deploys_on_move_and_ebpf(self):
        for factory in (move_vm, ebpf_vm):
            vm, state = deploy(factory, make_youtube_contract)
            assert vm.execute(state, invoke(
                "a", "DecentralizedYoutube", "upload", ("v",),
                gas_limit=BIG_GAS)).ok
