"""Web service DApp — ``Counter`` (§3, FIFA '98 workload).

"We implemented the web service DApp as a simple Counter smart contract,
with an add function, that gets incremented at each request, hence its
workload is highly contended."
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.vm.program import Contract

if TYPE_CHECKING:
    from repro.vm.program import ExecutionContext


def make_counter_contract() -> Contract:
    """Build the Counter contract."""
    contract = Contract("Counter")

    @contract.constructor
    def init(ctx: ExecutionContext) -> None:
        ctx.store("count", 0)

    @contract.function("add")
    def add(ctx: ExecutionContext) -> int:
        value = ctx.load("count") + 1
        ctx.compute(1)
        ctx.store("count", value)
        return value

    @contract.function("get")
    def get(ctx: ExecutionContext) -> int:
        return ctx.load("count")

    return contract
