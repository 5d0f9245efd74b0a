"""Blocks and block headers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

from repro.crypto.hashing import digest, merkle_root

if TYPE_CHECKING:
    from repro.chain.transaction import Transaction


@dataclass(eq=False)
class Block:
    """A block of transactions appended to the chain.

    ``timestamp`` is the virtual time at which the block was decided by
    consensus (the moment polling clients can first observe it locally at the
    proposer). ``gas_used`` is filled in by the executing VM.

    A block links to its ``parent`` block itself (None for genesis), not
    to the parent's hash, so sealing a block hashes nothing: the hash is
    computed the first time :attr:`block_hash` is read, and memoized.
    Only Solana reads it during a run (its clients stamp the head's hash
    as ``recent_block_hash``). Blocks compare by identity, so neither
    ``==`` nor ``repr`` walks the chain.
    """

    height: int
    parent: Optional[Block] = field(repr=False)
    proposer: str
    transactions: List[Transaction] = field(default_factory=list)
    timestamp: float = 0.0
    gas_used: int = 0

    _hash: Optional[str] = field(default=None, repr=False)

    @property
    def parent_hash(self) -> str:
        parent = self.parent
        return GENESIS_PARENT if parent is None else parent.block_hash

    @property
    def block_hash(self) -> str:
        """``digest("block", height, parent_hash, proposer, tx_root,
        timestamp)``, hashing the unhashed ancestors oldest first.

        Iterative, so reading the head of a long chain nobody has hashed
        neither recurses nor hashes a block twice.
        """
        if self._hash is not None:
            return self._hash
        unhashed = []
        block: Optional[Block] = self
        while block is not None and block._hash is None:
            unhashed.append(block)
            block = block.parent
        parent_hash = GENESIS_PARENT if block is None else block._hash
        for block in reversed(unhashed):
            parent_hash = block._hash = digest(
                "block", block.height, parent_hash, block.proposer,
                block.tx_root, block.timestamp)
        return parent_hash

    @property
    def tx_root(self) -> str:
        return merkle_root(tx.tx_hash for tx in self.transactions)

    @property
    def size(self) -> int:
        """Wire size in bytes: header plus transaction payloads."""
        return 512 + sum(tx.size for tx in self.transactions)

    def __len__(self) -> int:
        return len(self.transactions)


GENESIS_PARENT = digest("genesis-parent")


def genesis_block(proposer: str = "genesis") -> Block:
    """The height-0 block every simulated chain starts from."""
    return Block(height=0, parent=None, proposer=proposer, timestamp=0.0)
