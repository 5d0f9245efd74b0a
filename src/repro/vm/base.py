"""Virtual machine base: deploys contracts and executes transactions.

A :class:`VirtualMachine` owns the capability set of a contract language/VM
pair (Table 4: geth EVM + Solidity, AVM + PyTeal, MoveVM + Move, eBPF +
Solidity-compiled) and executes transactions against a :class:`WorldState`,
producing :class:`Receipt` objects.

The VM's ``gas_per_cpu_second`` maps consumed gas to simulated CPU seconds
(the chain divides a receipt's gas by it) so contract-heavy workloads load
the validator machines (the universality experiment's CPU intensity, §6.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Tuple

from repro.common.errors import (
    BudgetExceededError,
    ContractError,
    OutOfGasError,
    StateLimitError,
)
from repro.chain.receipt import ExecStatus, Receipt
from repro.chain.state import WorldState
from repro.chain.transaction import TRANSFER_KIND
from repro.vm.gas import DEFAULT_SCHEDULE, GasMeter
from repro.vm.program import ExecutionContext

if TYPE_CHECKING:
    from repro.chain.transaction import Transaction
    from repro.vm.gas import GasSchedule
    from repro.vm.program import Contract, VMCapabilities

# Gas units one c5-class core executes per second. Calibrated so a plain
# transfer (21k gas) costs ~0.4 ms of CPU, i.e. a few thousand TPS per core,
# in line with geth's execution throughput.
DEFAULT_GAS_PER_CPU_SECOND = 50e6

DEPLOY_GAS_LIMIT = 50_000_000

#: What every successful native transfer returns when its schedule charges
#: the default intrinsic gas (every built-in schedule does): one receipt,
#: built at import, shared by all of them. Nothing writes a receipt's
#: fields, so sharing it is safe; a transfer that fails, one under a
#: schedule with another ``base_tx`` and every invocation get their own.
TRANSFER_OK = Receipt(ExecStatus.SUCCESS, gas_used=DEFAULT_SCHEDULE.base_tx)


@dataclass
class DeployedContract:
    """A contract instance living at an address in the world state."""

    contract: Contract
    address: str


class VirtualMachine:
    """Executes transfers and contract invocations with gas metering."""

    def __init__(self, capabilities: VMCapabilities,
                 schedule: GasSchedule = DEFAULT_SCHEDULE,
                 gas_per_cpu_second: float = DEFAULT_GAS_PER_CPU_SECOND,
                 strict_nonce: bool = False) -> None:
        self.capabilities = capabilities
        self.schedule = schedule
        self.gas_per_cpu_second = gas_per_cpu_second
        self.strict_nonce = strict_nonce
        self._deployed: Dict[str, DeployedContract] = {}

    @property
    def language(self) -> str:
        return self.capabilities.language

    # -- deployment --------------------------------------------------------------

    def deploy(self, state: WorldState, contract: Contract,
               deployer: str = "deployer") -> DeployedContract:
        """Deploy *contract*, running its constructor against fresh storage.

        Deployment failures propagate: this is where the AVM's state limits
        reject the video sharing DApp (§5.2), before any benchmark runs.
        """
        address = f"contract:{contract.name}"
        storage = state.deploy_storage(address)
        meter = GasMeter(DEPLOY_GAS_LIMIT,
                         hard_budget=None,  # constructors run at genesis
                         schedule=self.schedule)
        ctx = ExecutionContext(storage, meter, self.capabilities,
                               caller=deployer, contract_name=contract.name)
        contract.initialize(ctx)
        deployed = DeployedContract(contract, address)
        self._deployed[contract.name] = deployed
        return deployed

    def deployed(self, name: str) -> DeployedContract:
        try:
            return self._deployed[name]
        except KeyError:
            raise ContractError(f"contract {name!r} is not deployed") from None

    def is_deployed(self, name: str) -> bool:
        return name in self._deployed

    # -- execution -----------------------------------------------------------------

    def execute(self, state: WorldState, tx: Transaction,
                block_height: int = 0) -> Receipt:
        """Execute one transaction, returning its receipt.

        Never raises for in-contract failures — they become receipt
        statuses, matching how blocks include failed transactions. A
        native transfer runs inline; one that succeeds under the default
        intrinsic gas returns :data:`TRANSFER_OK`.
        """
        if self.strict_nonce and tx.sequence != state.nonce(tx.sender):
            return Receipt(ExecStatus.INVALID,
                           error=f"bad sequence {tx.sequence},"
                                 f" expected {state.nonce(tx.sender)}")
        if tx.kind is not TRANSFER_KIND:
            state.bump_nonce(tx.sender)
            return self._execute_invoke(state, tx, block_height)
        gas = self.schedule.base_tx
        if gas > tx.gas_limit:
            state.bump_nonce(tx.sender)
            return Receipt(ExecStatus.OUT_OF_GAS, gas_used=tx.gas_limit,
                           error="intrinsic gas")
        if tx.recipient is None:
            state.bump_nonce(tx.sender)
            return Receipt(ExecStatus.INVALID, gas_used=gas,
                           error="no recipient")
        # nonce, debit and credit in one call
        if not state.transfer(tx.sender, tx.recipient, tx.amount):
            return Receipt(ExecStatus.REVERTED, gas_used=gas,
                           error="insufficient balance")
        if gas == TRANSFER_OK.gas_used:
            return TRANSFER_OK
        return Receipt(ExecStatus.SUCCESS, gas_used=gas)

    def _execute_invoke(self, state: WorldState, tx: Transaction,
                        block_height: int) -> Receipt:
        if tx.contract is None or tx.function is None:
            return Receipt(ExecStatus.INVALID,
                           error="invoke without contract/function")
        try:
            deployed = self.deployed(tx.contract)
        except ContractError as exc:
            return Receipt(ExecStatus.INVALID, error=str(exc))
        storage = state.storage(deployed.address)
        intrinsic = self.schedule.base_tx + self.schedule.call_overhead
        # The hard budget caps *contract execution*, not the intrinsic
        # transaction cost, so the meter for the call excludes it.
        meter = GasMeter(max(0, tx.gas_limit - intrinsic),
                         hard_budget=self.capabilities.hard_budget,
                         schedule=self.schedule)
        ctx = ExecutionContext(storage, meter, self.capabilities,
                               caller=tx.sender, args=tx.args,
                               contract_name=tx.contract,
                               block_height=block_height)
        try:
            fn = deployed.contract.get_function(tx.function)
            value = fn(ctx)
        except BudgetExceededError as exc:
            return Receipt(ExecStatus.BUDGET_EXCEEDED,
                           gas_used=intrinsic + meter.used, error=str(exc))
        except OutOfGasError as exc:
            return Receipt(ExecStatus.OUT_OF_GAS, gas_used=tx.gas_limit,
                           error=str(exc))
        except (ContractError, StateLimitError) as exc:
            return Receipt(ExecStatus.REVERTED,
                           gas_used=intrinsic + meter.used, error=str(exc))
        return Receipt(ExecStatus.SUCCESS, gas_used=intrinsic + meter.used,
                       return_value=value, events=ctx.events)

    def probe_gas(self, state: WorldState, tx: Transaction) -> Tuple[ExecStatus, int]:
        """Dry-run a transaction on a copy-free probe.

        Used by chains (and tests) to estimate whether a DApp function fits
        the VM budget without mutating the canonical state. The probe runs on
        a scratch state seeded with a deployment of the same contract.
        """
        scratch = WorldState()
        probe_vm = VirtualMachine(self.capabilities, self.schedule,
                                  self.gas_per_cpu_second)
        if tx.contract is not None and self.is_deployed(tx.contract):
            original = self.deployed(tx.contract)
            probe_vm.deploy(scratch, original.contract)
        else:
            scratch.credit(tx.sender, 10**18)
        receipt = probe_vm.execute(scratch, tx)
        return receipt.status, receipt.gas_used
