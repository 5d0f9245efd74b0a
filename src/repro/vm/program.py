"""The contract programming framework.

The paper writes each DApp three times — Solidity for the geth-EVM chains,
PyTeal for Algorand and Move for Diem — and reports language-level
portability problems: no floating point, no built-in square root, hard
execution budgets, and tiny key-value state on the AVM. We capture that with
a single portable contract representation: a :class:`Contract` exposes
functions written against an :class:`ExecutionContext` whose operations are
gas-metered and capability-checked, so the *same* contract source runs (or
deterministically fails) on every VM exactly the way the paper describes.

The context provides a ``bulk_loop`` primitive: gas for ``n`` iterations is
charged analytically while the loop's aggregate effect is computed directly.
This is the documented performance substitution that lets the 10,000-driver
Uber contract run per transaction without interpreting 10,000 Python
iterations (DESIGN.md §2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.common.errors import (
    ContractError,
    StateLimitError,
)
from repro.chain.receipt import Event

if TYPE_CHECKING:
    from repro.chain.state import ContractStorage
    from repro.vm.gas import GasMeter


@dataclass(frozen=True)
class VMCapabilities:
    """What a VM's contract language supports and enforces.

    ``hard_budget``      per-transaction compute cap (None = unbounded, geth)
    ``has_builtin_sqrt`` a native sqrt (none of the paper's three languages)
    ``kv_entry_limit``   max bytes per key-value pair (AVM: 128)
    ``max_state_entries`` max number of KV pairs (AVM global state: 64)
    """

    language: str
    hard_budget: Optional[int] = None
    has_builtin_sqrt: bool = False
    kv_entry_limit: Optional[int] = None
    max_state_entries: Optional[int] = None


ContractFunction = Callable[["ExecutionContext"], Any]


def kv_entry_size(key: str, value: Any) -> int:
    """Bytes one key-value pair occupies, for ``kv_entry_limit``.

    Ints and strings count their text form. An ndarray counts its buffer:
    ``str`` of a large array is numpy's elided summary (35 characters for
    10,000 elements), which would slip 80 KB past a 128-byte limit.
    """
    value_size = (value.nbytes if isinstance(value, np.ndarray)
                  else len(str(value)))
    return len(str(key)) + value_size


class Contract:
    """A deployable smart contract: named, with callable functions."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._functions: Dict[str, ContractFunction] = {}
        self._constructor: Optional[ContractFunction] = None

    def function(self, name: str) -> Callable[[ContractFunction], ContractFunction]:
        """Decorator registering a public contract function."""
        def register(fn: ContractFunction) -> ContractFunction:
            self._functions[name] = fn
            return fn
        return register

    def constructor(self, fn: ContractFunction) -> ContractFunction:
        """Decorator registering the deployment-time initializer."""
        self._constructor = fn
        return fn

    def functions(self) -> List[str]:
        return sorted(self._functions)

    def get_function(self, name: str) -> ContractFunction:
        try:
            return self._functions[name]
        except KeyError:
            raise ContractError(
                f"contract {self.name!r} has no function {name!r}") from None

    def initialize(self, ctx: "ExecutionContext") -> None:
        if self._constructor is not None:
            self._constructor(ctx)


class ExecutionContext:
    """Gas-metered, capability-checked execution environment.

    One context is created per transaction execution; it wraps the contract's
    storage, the gas meter and the VM capabilities, and collects emitted
    events.
    """

    def __init__(self, storage: ContractStorage, meter: GasMeter,
                 capabilities: VMCapabilities, caller: str,
                 args: Tuple[Any, ...] = (), contract_name: str = "",
                 block_height: int = 0) -> None:
        self.storage = storage
        self.meter = meter
        self.capabilities = capabilities
        self.caller = caller
        self.args = args
        self.contract_name = contract_name
        self.block_height = block_height
        self.events: List[Event] = []

    # -- arguments --------------------------------------------------------------

    def arg(self, index: int, default: Any = None) -> Any:
        if index < len(self.args):
            return self.args[index]
        if default is not None:
            return default
        raise ContractError(
            f"{self.contract_name}: missing argument {index}")

    # -- storage ------------------------------------------------------------------

    def load(self, key: str, default: Any = 0) -> Any:
        self.meter.charge(self.meter.schedule.load)
        return self.storage.get(key, default)

    def store(self, key: str, value: Any) -> None:
        schedule = self.meter.schedule
        is_new = key not in self.storage.data
        self.meter.charge(schedule.store_new if is_new else schedule.store)
        caps = self.capabilities
        if caps.max_state_entries is not None and is_new:
            if len(self.storage) >= caps.max_state_entries:
                raise StateLimitError(
                    f"{caps.language}: state limited to"
                    f" {caps.max_state_entries} key-value pairs")
        if caps.kv_entry_limit is not None:
            entry_size = kv_entry_size(key, value)
            if entry_size > caps.kv_entry_limit:
                raise StateLimitError(
                    f"{caps.language}: key-value pair of {entry_size} bytes"
                    f" exceeds the {caps.kv_entry_limit}-byte limit")
        self.storage.put(key, value)

    # -- arithmetic --------------------------------------------------------------

    def compute(self, units: int = 1) -> None:
        """Charge for *units* basic arithmetic operations."""
        self.meter.charge(self.meter.schedule.arith * units)

    # -- bulk loop (performance substitution, DESIGN.md) -----------------------------

    def bulk_loop(self, iterations: int, gas_per_iteration: int,
                  effect: Optional[Callable[[], Any]] = None) -> Any:
        """Charge for *iterations* loop rounds; compute the effect directly.

        Gas is identical to executing the loop iteration-by-iteration; the
        aggregate effect (if any) runs once, typically vectorised. The hard
        budget check happens on the total, so a 10,000-iteration loop trips
        a 700-unit AVM budget exactly as the real TEAL program would.
        """
        if iterations < 0:
            raise ContractError("negative loop count")
        self.meter.charge(iterations * gas_per_iteration)
        return effect() if effect is not None else None

    # -- control flow -----------------------------------------------------------------

    def require(self, condition: bool, message: str = "requirement failed") -> None:
        self.meter.charge(self.meter.schedule.arith)
        if not condition:
            raise ContractError(f"{self.contract_name}: {message}")

    def emit(self, name: str, *payload: Any) -> None:
        self.meter.charge(self.meter.schedule.emit
                          + self.meter.schedule.memory_byte * 32)
        self.events.append(Event(self.contract_name, name, payload))

    def charge_data(self, size_bytes: int) -> None:
        """Charge for carrying *size_bytes* of calldata (YouTube uploads)."""
        self.meter.charge(self.meter.schedule.memory_byte * max(0, size_bytes))
