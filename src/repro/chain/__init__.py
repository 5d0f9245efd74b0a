"""Blockchain data structures: transactions, blocks, mempool, state, ledger."""

from repro import lazy_package

__all__ = [
    "Account",
    "AccountFactoryLimits",
    "AccountRegistry",
    "Block",
    "ContractStorage",
    "DEFAULT_INITIAL_BALANCE",
    "Event",
    "ExecStatus",
    "GENESIS_PARENT",
    "Ledger",
    "Mempool",
    "MempoolPolicy",
    "Receipt",
    "Transaction",
    "TxKind",
    "WorldState",
    "genesis_block",
    "invoke",
    "transfer",
]

__getattr__, __dir__ = lazy_package(globals(), {
    "repro.chain.account": (
        "Account", "AccountFactoryLimits", "AccountRegistry",
        "DEFAULT_INITIAL_BALANCE",
    ),
    "repro.chain.block": ("Block", "GENESIS_PARENT", "genesis_block"),
    "repro.chain.ledger": ("Ledger",),
    "repro.chain.mempool": ("Mempool", "MempoolPolicy"),
    "repro.chain.receipt": ("Event", "ExecStatus", "Receipt"),
    "repro.chain.state": ("ContractStorage", "WorldState"),
    "repro.chain.transaction": ("Transaction", "TxKind", "invoke", "transfer"),
})
