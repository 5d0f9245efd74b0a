"""Gas-metered virtual machines and the portable contract framework."""

from repro import lazy_package

__all__ = [
    "AVM_CAPS",
    "Contract",
    "DEFAULT_GAS_PER_CPU_SECOND",
    "DEFAULT_SCHEDULE",
    "DeployedContract",
    "EBPF_CAPS",
    "ExecutionContext",
    "GETH_EVM_CAPS",
    "GasMeter",
    "GasSchedule",
    "MOVE_VM_CAPS",
    "VMCapabilities",
    "VM_FACTORIES",
    "VirtualMachine",
    "avm",
    "ebpf_vm",
    "geth_evm",
    "move_vm",
]

__getattr__, __dir__ = lazy_package(globals(), {
    "repro.vm.base": (
        "DEFAULT_GAS_PER_CPU_SECOND", "DeployedContract", "VirtualMachine",
    ),
    "repro.vm.gas": ("DEFAULT_SCHEDULE", "GasMeter", "GasSchedule"),
    "repro.vm.machines": (
        "AVM_CAPS", "EBPF_CAPS", "GETH_EVM_CAPS", "MOVE_VM_CAPS",
        "VM_FACTORIES", "avm", "ebpf_vm", "geth_evm", "move_vm",
    ),
    "repro.vm.program": ("Contract", "ExecutionContext", "VMCapabilities"),
})
