"""The ledger: an append-only chain of blocks with confirmation depth.

Forkable chains (Solana, Ethereum Clique) require clients to wait for
additional appended blocks ("confirmations") before treating a transaction
as final — the paper sets Solana to 30 confirmations (§5.2). The ledger
tracks, for each block, the height at which it reaches a given confirmation
depth, and exposes the polling queries the DIABLO secondaries use.
"""

from __future__ import annotations

from typing import List, Optional

from repro.common.errors import ChainError
from repro.chain.block import Block, genesis_block


class Ledger:
    """Append-only block sequence shared by all honest nodes of one chain."""

    def __init__(self, confirmation_depth: int = 0) -> None:
        if confirmation_depth < 0:
            raise ChainError("confirmation depth cannot be negative")
        self.confirmation_depth = confirmation_depth
        genesis = genesis_block()
        self._blocks: List[Block] = [genesis]
        self._decided_at: List[float] = [0.0]
        # virtual time each height became *final* (confirmed); genesis is
        # final immediately
        self._final_at: List[Optional[float]] = [0.0]

    # -- append ---------------------------------------------------------------

    def append(self, block: Block, decided_at: float) -> None:
        """Append a consensus-decided block at the next height."""
        head = self._blocks[-1]
        if block.height != head.height + 1:
            raise ChainError(
                f"expected height {head.height + 1}, got {block.height}")
        # by identity: stricter than comparing hashes, and hashes nothing
        if block.parent is not head:
            raise ChainError("block does not extend the current head")
        self._blocks.append(block)
        self._decided_at.append(decided_at)
        self._final_at.append(None if self.confirmation_depth > 0 else decided_at)
        if self.confirmation_depth > 0:
            # the block confirmation_depth behind the new head becomes final
            confirmed = block.height - self.confirmation_depth
            if confirmed >= 0 and self._final_at[confirmed] is None:
                self._final_at[confirmed] = decided_at

    # -- queries ------------------------------------------------------------------

    @property
    def head(self) -> Block:
        return self._blocks[-1]

    @property
    def height(self) -> int:
        return self._blocks[-1].height

    def block_at(self, height: int) -> Block:
        if height < 0 or height >= len(self._blocks):
            raise ChainError(f"no block at height {height}")
        return self._blocks[height]

    def decided_at(self, height: int) -> float:
        return self._decided_at[height]

    def final_at(self, height: int) -> Optional[float]:
        """Virtual time the block at *height* became final, None if not yet."""
        if height < 0 or height >= len(self._blocks):
            raise ChainError(f"no block at height {height}")
        return self._final_at[height]

    def total_transactions(self) -> int:
        return sum(len(b) for b in self._blocks)
