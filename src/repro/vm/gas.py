"""Gas accounting.

All contract operations are metered in abstract *compute units*; each VM maps
units to its native notion of gas and imposes its own limits. The schedule
below is EVM-flavoured (storage writes dominate) — relative costs are what
matter for reproducing the paper, not absolute mainnet prices.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import BudgetExceededError, OutOfGasError


@dataclass(frozen=True)
class GasSchedule:
    """Cost of each abstract operation in compute units."""

    base_tx: int = 21_000        # intrinsic cost of any transaction
    arith: int = 3               # add/sub/mul/cmp
    div: int = 5                 # div/mod
    load: int = 200              # read a storage slot (warm-ish SLOAD)
    store: int = 5_000           # write a storage slot
    store_new: int = 20_000      # write a fresh storage slot
    emit: int = 1_125            # LOG with one topic
    memory_byte: int = 3         # per byte of calldata/memory traffic
    call_overhead: int = 2_600   # entering a contract function


DEFAULT_SCHEDULE = GasSchedule()


def scaled_schedule(execution_factor: float,
                    base: GasSchedule = DEFAULT_SCHEDULE) -> GasSchedule:
    """A schedule whose *execution* costs are scaled by *execution_factor*.

    The intrinsic transaction cost stays at the base — a native transfer
    costs the same everywhere — but every contract operation becomes
    proportionally more expensive. This models VMs whose high-level
    operations compile to many interpreted instructions: the AVM executes
    TEAL compiled from PyTeal, and Solana executes Solidity compiled to
    eBPF via Solang — both far less tuned than the geth EVM, which is why
    the paper observes DApp throughput collapsing on those chains while
    native transfers stay fast (§6.1 vs §6.2).
    """
    def scale(value: int) -> int:
        return max(1, int(round(value * execution_factor)))

    return GasSchedule(
        base_tx=base.base_tx,
        arith=scale(base.arith),
        div=scale(base.div),
        load=scale(base.load),
        store=scale(base.store),
        store_new=scale(base.store_new),
        emit=scale(base.emit),
        memory_byte=scale(base.memory_byte),
        call_overhead=scale(base.call_overhead),
    )


def eip1559_base_fee_update(base_fee: int, gas_used: int, gas_target: int,
                            denominator: int = 8, floor: int = 1) -> int:
    """One EIP-1559 base-fee step, in pure integer arithmetic.

    The protocol adjusts the base fee by at most ``1/denominator`` per
    block, proportionally to how far ``gas_used`` landed from
    ``gas_target`` (the cap divided by the elasticity multiplier). Full
    blocks push the fee up by the maximum step, empty blocks pull it
    down; an exactly-on-target block leaves it unchanged. The result
    never drops below *floor* — integer throughout so the fee trajectory
    is bit-reproducible across platforms.
    """
    if gas_target <= 0:
        return max(base_fee, floor)
    if gas_used > gas_target:
        delta = base_fee * (gas_used - gas_target) // (gas_target * denominator)
        return base_fee + max(1, delta)
    if gas_used < gas_target:
        delta = base_fee * (gas_target - gas_used) // (gas_target * denominator)
        return max(floor, base_fee - max(1, delta))
    return max(floor, base_fee)


class GasMeter:
    """Tracks gas consumed by one transaction execution.

    Two independent ceilings apply:

    * ``limit`` — the gas the sender attached to the transaction; exceeding
      it raises :class:`OutOfGasError` (the tx could retry with more gas);
    * ``hard_budget`` — the VM's built-in computational cap; exceeding it
      raises :class:`BudgetExceededError`, the error that makes the Mobility
      DApp non-executable on Algorand, Diem and Solana (§6.4). This limit
      "is hard-coded and cannot be lifted by paying a higher gas fee".
    """

    __slots__ = ("limit", "hard_budget", "used", "schedule")

    def __init__(self, limit: int, hard_budget: int | None = None,
                 schedule: GasSchedule = DEFAULT_SCHEDULE) -> None:
        self.limit = limit
        self.hard_budget = hard_budget
        self.used = 0
        self.schedule = schedule

    def charge(self, amount: int) -> None:
        """Consume *amount* units, raising when a ceiling is crossed."""
        if amount < 0:
            raise ValueError(f"negative gas charge {amount}")
        self.used += amount
        if self.hard_budget is not None and self.used > self.hard_budget:
            raise BudgetExceededError(
                f"computational budget exceeded: {self.used} > hard budget"
                f" {self.hard_budget}")
        if self.used > self.limit:
            raise OutOfGasError(f"out of gas: {self.used} > limit {self.limit}")
