"""A successful native transfer returns one shared receipt.

Every successful transfer under a schedule charging the default intrinsic
gas returns ``TRANSFER_OK``, built once at import; a run of transfers
builds no receipt at all. A failed transfer, a transfer under a schedule
with another ``base_tx`` and every invocation get a receipt of their own,
carrying their own error or return value.
"""

from __future__ import annotations

import pytest

from repro.chain.receipt import ExecStatus, Receipt
from repro.chain.state import WorldState
from repro.chain.transaction import Transaction, TxKind, invoke, transfer
from repro.contracts.webservice import make_counter_contract
from repro.core.primary import Primary
from repro.core.spec import (
    AccountSample,
    LoadSchedule,
    TransferSpec,
    simple_spec,
)
from repro.econ.fees import FeeSpec
from repro.vm.base import TRANSFER_OK, VirtualMachine
from repro.vm.gas import DEFAULT_SCHEDULE, GasSchedule
from repro.vm.machines import GETH_EVM_CAPS, avm, ebpf_vm, geth_evm, move_vm

#: TRANSFER_OK's fields as built: what no run may change
SHARED_FIELDS = (ExecStatus.SUCCESS, DEFAULT_SCHEDULE.base_tx, None, None, ())


def fields(receipt):
    return (receipt.status, receipt.gas_used, receipt.return_value,
            receipt.error, receipt.events)


def funded(*senders):
    state = WorldState()
    for sender in senders:
        state.credit(sender, 1_000)
    return state


@pytest.mark.parametrize("make_vm", [geth_evm, move_vm, avm, ebpf_vm],
                         ids=["default", "move", "avm", "ebpf"])
def test_a_successful_transfer_returns_the_shared_receipt(make_vm):
    vm = make_vm()
    assert vm.schedule.base_tx == DEFAULT_SCHEDULE.base_tx
    state = funded("alice")
    first = vm.execute(state, transfer("alice", "bob", 5, gas_limit=21_000))
    second = vm.execute(state, transfer("alice", "carol", 7))
    assert first is TRANSFER_OK and second is TRANSFER_OK
    # the shared receipt stands for the transfer: the state moved
    assert (state.balance("alice"), state.balance("bob"),
            state.balance("carol")) == (988, 5, 7)
    assert state.nonce("alice") == 2
    assert fields(TRANSFER_OK) == SHARED_FIELDS


@pytest.mark.parametrize("tx, status, gas, error", [
    (Transaction("alice", TxKind.TRANSFER, amount=5), ExecStatus.INVALID,
     21_000, "no recipient"),
    (transfer("alice", "bob", 5, gas_limit=20_000), ExecStatus.OUT_OF_GAS,
     20_000, "intrinsic gas"),
    (transfer("alice", "bob", 5_000), ExecStatus.REVERTED, 21_000,
     "insufficient balance"),
], ids=["no-recipient", "intrinsic-gas", "insufficient-balance"])
def test_a_failed_transfer_gets_its_own_receipt(tx, status, gas, error):
    vm = geth_evm()
    first = vm.execute(funded("alice"), tx)
    again = vm.execute(funded("alice"), tx)
    assert first is not TRANSFER_OK and again is not first
    assert fields(first) == fields(again) == (status, gas, None, error, ())
    assert fields(TRANSFER_OK) == SHARED_FIELDS


def test_an_invoke_gets_its_own_receipt_with_its_return_value():
    vm = geth_evm()
    state = funded("alice")
    vm.deploy(state, make_counter_contract())
    first = vm.execute(state, invoke("alice", "Counter", "add"))
    second = vm.execute(state, invoke("alice", "Counter", "add"))
    assert first.ok and second.ok
    assert first is not TRANSFER_OK and second is not TRANSFER_OK
    assert first is not second
    assert (first.return_value, second.return_value) == (1, 2)
    assert first.gas_used > DEFAULT_SCHEDULE.base_tx


def test_another_intrinsic_gas_gets_its_own_success_receipt():
    vm = VirtualMachine(GETH_EVM_CAPS, schedule=GasSchedule(base_tx=30_000))
    receipt = vm.execute(funded("alice"), transfer("alice", "bob", 5))
    assert receipt is not TRANSFER_OK
    assert fields(receipt) == (ExecStatus.SUCCESS, 30_000, None, None, ())


def test_a_fee_market_transfer_run_builds_no_receipt(monkeypatch):
    built = []
    init = Receipt.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Receipt, "__init__", counting_init)
    primary = Primary("diem", "testnet", scale=0.1, seed=3)
    spec = simple_spec(TransferSpec(AccountSample(50)),
                       LoadSchedule.constant(100, 3), fees=FeeSpec())
    result = primary.run(spec, "shared-receipt", drain=30)
    market = primary.network.fee_market
    assert market is not None
    committed = sum(1 for record in result.records if record.committed)
    assert committed == len(primary.network.committed) > 0
    # the fee market charged every sealed transfer off the shared receipt
    assert result.economics["txs_charged"] >= committed
    assert built == []
    assert fields(TRANSFER_OK) == SHARED_FIELDS
