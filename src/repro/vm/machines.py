"""Concrete virtual machines (Table 4's VM column).

Hard budgets are expressed in the abstract compute units of
:mod:`repro.vm.gas` and calibrated against the paper's observed outcomes
(§6.4, Fig. 5):

* every chain executes the Exchange, Gaming, Web-service and Video DApps
  (the Gaming ``update`` is the heaviest at roughly 1.1e5 units: 10 players
  x 2 coordinates, each a load + store + arithmetic);
* the Mobility DApp's 10,000-iteration distance loop costs roughly 1.2e6
  units (1,230,624 per call), which must exceed the AVM (500k), eBPF
  (600k) and MoveVM (1M) budgets ("budget exceeded") while the geth EVM,
  having *no* hard per-transaction budget, executes it;
* the AVM additionally limits state to 128-byte key-value pairs (and 64
  global pairs), which is what rejects the video sharing DApp on Algorand
  at deployment time (§5.2).
"""

from __future__ import annotations

from repro.vm.base import VirtualMachine
from repro.vm.gas import scaled_schedule
from repro.vm.program import VMCapabilities

GETH_EVM_CAPS = VMCapabilities(
    language="solidity/geth-evm",
    hard_budget=None,        # "no hard limit on gas budget of a transaction"
    has_builtin_sqrt=False,
)

AVM_CAPS = VMCapabilities(
    language="pyteal/avm",
    hard_budget=500_000,     # TEAL AppCall opcode budget, in abstract units
    has_builtin_sqrt=False,
    kv_entry_limit=128,      # 128 bytes per key-value pair (§5.2)
    max_state_entries=64,    # AVM global state pairs
)

MOVE_VM_CAPS = VMCapabilities(
    language="move/movevm",
    hard_budget=1_000_000,   # Diem max-gas-per-transaction
    has_builtin_sqrt=False,
)

EBPF_CAPS = VMCapabilities(
    language="solidity/ebpf",
    hard_budget=600_000,     # Solana compute budget per transaction
    has_builtin_sqrt=False,
)


def geth_evm(**kwargs: object) -> VirtualMachine:
    """The geth Ethereum Virtual Machine (Ethereum, Quorum, Avalanche).

    geth is the most mature of the evaluated VMs — the paper observes that
    "the blockchains based on the Go Ethereum (or geth) virtual machine
    seem to handle generic programs the best" — so its execution rate is an
    order of magnitude above the default.
    """
    kwargs.setdefault("gas_per_cpu_second", 1e9)
    return VirtualMachine(GETH_EVM_CAPS, **kwargs)


# Contract execution cost multipliers relative to the geth EVM (see
# repro.vm.gas.scaled_schedule): TEAL interpretation and Solang-compiled
# eBPF execute many low-level instructions per high-level operation.
AVM_EXECUTION_FACTOR = 8.0
EBPF_EXECUTION_FACTOR = 12.0


def avm(**kwargs: object) -> VirtualMachine:
    """Algorand's AVM executing TEAL compiled from PyTeal."""
    kwargs.setdefault("schedule", scaled_schedule(AVM_EXECUTION_FACTOR))
    return VirtualMachine(AVM_CAPS, **kwargs)


def move_vm(**kwargs: object) -> VirtualMachine:
    """Diem's MoveVM."""
    return VirtualMachine(MOVE_VM_CAPS, **kwargs)


def ebpf_vm(**kwargs: object) -> VirtualMachine:
    """Solana's eBPF runtime (Solidity via the Solang toolchain)."""
    kwargs.setdefault("schedule", scaled_schedule(EBPF_EXECUTION_FACTOR))
    return VirtualMachine(EBPF_CAPS, **kwargs)


VM_FACTORIES = {
    "geth-evm": geth_evm,
    "avm": avm,
    "move-vm": move_vm,
    "ebpf": ebpf_vm,
}
