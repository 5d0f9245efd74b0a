"""Blockchain data structures: transactions, blocks, mempool, state, ledger."""
