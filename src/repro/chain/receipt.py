"""Execution receipts and contract events.

Receipts mirror the Ethereum model: per-transaction execution outcome, gas
used, and the events (logs) the contract emitted — the Exchange and YouTube
DApps of the paper emit events on success.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Optional, Sequence, Tuple


class ExecStatus(Enum):
    """Outcome of executing a transaction inside a block."""

    SUCCESS = "success"
    REVERTED = "reverted"          # contract require() failed
    OUT_OF_GAS = "out_of_gas"      # exhausted the gas sent with the tx
    BUDGET_EXCEEDED = "budget_exceeded"  # hit the VM's hard budget (§6.4)
    INVALID = "invalid"            # bad nonce/signature/balance


@dataclass(frozen=True)
class Event:
    """A contract event (log entry)."""

    contract: str
    name: str
    payload: Tuple[Any, ...] = ()


@dataclass(slots=True)
class Receipt:
    """Result of executing one transaction.

    A chain keeps a block's receipts only until the block is appended
    (its gas total and fee charges read them); what outlives that is the
    status of a failed execution, until the block commits or is requeued.
    A receipt names neither its transaction nor its block: it sits at its
    transaction's position in the block's list. Successful native
    transfers share one receipt (``repro.vm.base.TRANSFER_OK``), so no
    code writes a receipt's fields.
    """

    status: ExecStatus
    gas_used: int = 0
    return_value: Any = None
    error: Optional[str] = None
    events: Sequence[Event] = ()

    @property
    def ok(self) -> bool:
        return self.status is ExecStatus.SUCCESS
