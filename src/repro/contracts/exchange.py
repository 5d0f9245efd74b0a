"""Exchange DApp — ``ExchangeContractGafam`` (§3, NASDAQ workload).

A decentralised exchange trading the five GAFAM stocks. Each ``buy*``
function implements the paper's process exactly: "a fungible token available
in limited supply implemented by a single integer counter. Each transaction
buys 1 token by decrementing the counter after checking that this counter is
greater than 0", then emits a corresponding event.
"""

from __future__ import annotations


from typing import TYPE_CHECKING

from repro.vm.program import Contract

if TYPE_CHECKING:
    from repro.vm.program import ExecutionContext

STOCKS = ("google", "apple", "facebook", "amazon", "microsoft")

# Plenty of supply so benchmark runs are limited by the blockchain, not by
# the order book: the GAFAM workload peaks at 19,800 TPS for 3 minutes.
DEFAULT_SUPPLY = 50_000_000


def make_exchange_contract(supply: int = DEFAULT_SUPPLY) -> Contract:
    """Build the ExchangeContractGafam contract."""
    contract = Contract("ExchangeContractGafam")

    @contract.constructor
    def init(ctx: ExecutionContext) -> None:
        for stock in STOCKS:
            ctx.store(f"supply:{stock}", supply)

    def make_buy(stock: str):
        def buy(ctx: ExecutionContext) -> int:
            available = ctx.load(f"supply:{stock}")
            ctx.require(available > 0, f"no {stock} stock available")
            ctx.store(f"supply:{stock}", available - 1)
            ctx.emit(f"Bought{stock.capitalize()}", ctx.caller, 1)
            return available - 1
        return buy

    for stock in STOCKS:
        contract.function(f"buy{stock.capitalize()}")(make_buy(stock))

    @contract.function("checkStock")
    def check_stock(ctx: ExecutionContext) -> int:
        stock = ctx.arg(0, "google")
        return ctx.load(f"supply:{stock}")

    return contract
