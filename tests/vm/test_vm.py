"""Tests for gas metering, the contract framework and the four VMs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.chain.receipt import ExecStatus
from repro.chain.state import ContractStorage, WorldState
from repro.chain.transaction import Transaction, TxKind, invoke, transfer
from repro.common.errors import (
    BudgetExceededError,
    ContractError,
    OutOfGasError,
    StateLimitError,
)
from repro.vm.base import VirtualMachine
from repro.vm.gas import DEFAULT_SCHEDULE, GasMeter
from repro.vm.machines import (
    AVM_CAPS,
    EBPF_CAPS,
    GETH_EVM_CAPS,
    MOVE_VM_CAPS,
    avm,
    ebpf_vm,
    geth_evm,
    move_vm,
)
from repro.vm.program import (
    Contract,
    ExecutionContext,
    VMCapabilities,
    kv_entry_size,
)


class TestGasMeter:
    def test_charges_accumulate(self):
        meter = GasMeter(limit=1000)
        meter.charge(300)
        meter.charge(200)
        assert meter.used == 500

    def test_out_of_gas(self):
        meter = GasMeter(limit=100)
        with pytest.raises(OutOfGasError):
            meter.charge(101)

    def test_hard_budget_takes_priority(self):
        # the hard budget cannot be lifted by a higher gas limit (§6.4)
        meter = GasMeter(limit=10**9, hard_budget=500)
        with pytest.raises(BudgetExceededError):
            meter.charge(501)

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            GasMeter(limit=10).charge(-1)

def _ctx(caps=GETH_EVM_CAPS, limit=10_000_000, args=()):
    return ExecutionContext(ContractStorage(), GasMeter(limit, caps.hard_budget),
                            caps, caller="alice", args=args,
                            contract_name="T")


class TestExecutionContext:
    def test_store_and_load(self):
        ctx = _ctx()
        ctx.store("k", 7)
        assert ctx.load("k") == 7

    def test_storage_gas_costs_are_charged(self):
        ctx = _ctx()
        ctx.store("k", 1)
        fresh = ctx.meter.used
        assert fresh >= DEFAULT_SCHEDULE.store_new
        ctx.store("k", 2)  # overwrite is cheaper
        assert ctx.meter.used - fresh < DEFAULT_SCHEDULE.store_new

    def test_kv_entry_limit(self):
        # AVM: "key-value store with 128 bytes per key-value pair"
        ctx = _ctx(AVM_CAPS)
        with pytest.raises(StateLimitError):
            ctx.store("k", "x" * 200)

    def test_kv_entry_size_of_ints_and_strings_is_their_text(self):
        # the gaming and video DApps deploy (or not) on Algorand by these
        assert kv_entry_size("n", 0) == 2
        assert kv_entry_size("player:3:x", 250) == 13
        assert kv_entry_size("video:1", "alice:cat") == 16
        assert kv_entry_size("k", "x" * 200) == 201

    def test_kv_entry_size_of_an_array_is_its_buffer(self):
        # str() of a large array is numpy's elided summary, not its content
        positions = np.arange(10_000)
        assert len(str(positions)) < 128
        assert kv_entry_size("xs", positions) == 2 + positions.nbytes

    def test_array_state_is_limited_on_avm_only(self):
        contract = Contract("Arrays")

        @contract.constructor
        def init(ctx):
            ctx.store("xs", np.arange(10_000))

        with pytest.raises(StateLimitError):
            avm().deploy(WorldState(), contract)
        state = WorldState()
        geth_evm().deploy(state, contract)
        assert len(state.storage("contract:Arrays").get("xs")) == 10_000

    def test_max_state_entries(self):
        caps = VMCapabilities("tiny", max_state_entries=2)
        ctx = _ctx(caps)
        ctx.store("a", 1)
        ctx.store("b", 2)
        with pytest.raises(StateLimitError):
            ctx.store("c", 3)
        ctx.store("a", 9)  # overwriting existing keys stays legal

    def test_bulk_loop_charges_iterations(self):
        ctx = _ctx()
        result = ctx.bulk_loop(1000, 10, lambda: "done")
        assert result == "done"
        assert ctx.meter.used == 10_000

    def test_bulk_loop_hits_hard_budget(self):
        ctx = _ctx(AVM_CAPS)
        with pytest.raises(BudgetExceededError):
            ctx.bulk_loop(10_000, 120)

    def test_require(self):
        ctx = _ctx()
        ctx.require(True)
        with pytest.raises(ContractError):
            ctx.require(False, "nope")

    def test_emit_collects_events(self):
        ctx = _ctx()
        ctx.emit("Sold", "alice", 3)
        assert len(ctx.events) == 1
        assert ctx.events[0].name == "Sold"

    def test_args_access(self):
        ctx = _ctx(args=(5,))
        assert ctx.arg(0) == 5
        assert ctx.arg(1, default=9) == 9
        with pytest.raises(ContractError):
            ctx.arg(2)


def _counter_contract():
    contract = Contract("C")

    @contract.constructor
    def init(ctx):
        ctx.store("n", 0)

    @contract.function("inc")
    def inc(ctx):
        value = ctx.load("n") + 1
        ctx.store("n", value)
        return value

    @contract.function("boom")
    def boom(ctx):
        ctx.require(False, "always fails")

    return contract


class TestVirtualMachine:
    def test_deploy_runs_constructor(self):
        vm = geth_evm()
        state = WorldState()
        deployed = vm.deploy(state, _counter_contract())
        assert state.storage(deployed.address).get("n") == 0
        assert vm.is_deployed("C")

    def test_invoke_success(self):
        vm = geth_evm()
        state = WorldState()
        vm.deploy(state, _counter_contract())
        receipt = vm.execute(state, invoke("a", "C", "inc", gas_limit=10**6))
        assert receipt.status is ExecStatus.SUCCESS
        assert receipt.return_value == 1
        assert receipt.gas_used > 0

    def test_invoke_revert_becomes_receipt(self):
        vm = geth_evm()
        state = WorldState()
        vm.deploy(state, _counter_contract())
        receipt = vm.execute(state, invoke("a", "C", "boom", gas_limit=10**6))
        assert receipt.status is ExecStatus.REVERTED
        assert "always fails" in receipt.error

    def test_invoke_unknown_contract(self):
        vm = geth_evm()
        receipt = vm.execute(WorldState(), invoke("a", "Ghost", "f"))
        assert receipt.status is ExecStatus.INVALID

    def test_invoke_unknown_function(self):
        vm = geth_evm()
        state = WorldState()
        vm.deploy(state, _counter_contract())
        receipt = vm.execute(state, invoke("a", "C", "nope", gas_limit=10**6))
        assert receipt.status is ExecStatus.REVERTED

    def test_out_of_gas_receipt(self):
        vm = geth_evm()
        state = WorldState()
        vm.deploy(state, _counter_contract())
        receipt = vm.execute(state, invoke("a", "C", "inc", gas_limit=25_000))
        assert receipt.status is ExecStatus.OUT_OF_GAS

    def test_transfer_moves_funds(self):
        vm = geth_evm()
        state = WorldState()
        state.credit("a", 100)
        receipt = vm.execute(state, transfer("a", "b", amount=40))
        assert receipt.ok
        assert state.balance("a") == 60
        assert state.balance("b") == 40

    def test_transfer_insufficient_funds_reverts(self):
        vm = geth_evm()
        state = WorldState()
        receipt = vm.execute(state, transfer("a", "b", amount=40))
        assert receipt.status is ExecStatus.REVERTED

    def test_strict_nonce_rejects_gaps(self):
        vm = VirtualMachine(GETH_EVM_CAPS, strict_nonce=True)
        state = WorldState()
        state.credit("a", 100)
        assert vm.execute(state, transfer("a", "b", sequence=0)).ok
        bad = vm.execute(state, transfer("a", "b", sequence=5))
        assert bad.status is ExecStatus.INVALID

    def test_geth_is_the_fast_vm(self):
        assert geth_evm().gas_per_cpu_second > move_vm().gas_per_cpu_second

    def test_transfer_to_self_keeps_the_balance_and_bumps_the_nonce(self):
        vm = geth_evm()
        state = WorldState()
        state.credit("a", 100)
        assert vm.execute(state, transfer("a", "a", amount=40)).ok
        assert (state.balance("a"), state.nonce("a")) == (100, 1)

    @pytest.mark.parametrize("fields, status", [
        ({"recipient": "b", "amount": 500}, ExecStatus.REVERTED),
        ({"recipient": "b", "gas_limit": 20_000}, ExecStatus.OUT_OF_GAS),
        ({"recipient": None}, ExecStatus.INVALID),
    ], ids=["unfunded", "intrinsic-gas", "no-recipient"])
    def test_failed_transfer_still_bumps_the_nonce(self, fields, status):
        vm = geth_evm()
        state = WorldState()
        state.credit("a", 100)
        tx = Transaction("a", TxKind.TRANSFER, **fields)
        assert vm.execute(state, tx).status is status
        assert (state.balance("a"), state.balance("b"), state.nonce("a")) \
            == (100, 0, 1)

    def test_probe_gas_does_not_mutate_state(self):
        vm = geth_evm()
        state = WorldState()
        vm.deploy(state, _counter_contract())
        status, gas = vm.probe_gas(state, invoke("a", "C", "inc",
                                                 gas_limit=10**6))
        assert status is ExecStatus.SUCCESS
        assert gas > 0
        assert state.storage("contract:C").get("n") == 0


class TestVMBudgets:
    """The Table 4 / Fig. 5 capability matrix."""

    def test_geth_has_no_hard_budget(self):
        assert GETH_EVM_CAPS.hard_budget is None

    def test_other_vms_have_hard_budgets(self):
        assert AVM_CAPS.hard_budget is not None
        assert MOVE_VM_CAPS.hard_budget is not None
        assert EBPF_CAPS.hard_budget is not None

    def test_avm_has_kv_limits(self):
        assert AVM_CAPS.kv_entry_limit == 128
        assert AVM_CAPS.max_state_entries == 64

    def test_languages(self):
        assert "solidity" in GETH_EVM_CAPS.language
        assert "pyteal" in AVM_CAPS.language
        assert "move" in MOVE_VM_CAPS.language
        assert "ebpf" in EBPF_CAPS.language
