"""Clique — Ethereum's proof-of-authority consensus (geth, §5.2).

Sealers take turns producing a block every ``period`` seconds. The in-turn
sealer (height mod n) seals immediately at its slot; out-of-turn sealers
back off by a random delay and only seal if the in-turn block has not
arrived — this "wiggle" is what keeps the chain from forking constantly,
but as Ekparinya et al. showed (the paper cites [16]), message delays can
still fork it. Clients therefore wait ``confirmations`` extra blocks.

This implementation follows geth's simplified rules: blocks carry a
difficulty of 2 when in-turn and 1 otherwise, and replicas adopt the
heaviest chain. Decisions are reported at a configurable confirmation
depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.common.rng import RngFactory
from repro.consensus.base import Message, Replica
from repro.crypto.hashing import digest

BLOCK_BASE_SIZE = 600
WIGGLE_MAX = 0.5  # geth: rand(signers/2+1) * 500ms


@dataclass
class CliqueBlock:
    block_id: str
    height: int
    parent_id: str
    sealer: int
    difficulty: int
    value: object = None
    total_difficulty: int = 0


class CliqueReplica(Replica):
    """One Clique sealer."""

    def __init__(self, period: float = 5.0, confirmations: int = 2,
                 seed: int = 0) -> None:
        super().__init__()
        self.period = period
        self.confirmations = confirmations
        self._seed = seed
        self._rng = None  # seeded with node_id in on_start
        genesis = CliqueBlock("genesis", 0, "", -1, 0)
        self.blocks: Dict[str, CliqueBlock] = {"genesis": genesis}
        self.head: CliqueBlock = genesis
        self._decided_up_to = 0
        self._last_sealed: Optional[int] = None  # height of its last seal
        self._slot_timer = None  # single pending seal attempt

    # -- helpers --------------------------------------------------------------

    def in_turn(self, height: int) -> int:
        return height % self.n

    def _can_seal(self, height: int) -> bool:
        # a sealer must wait n//2 + 1 blocks between its own seals
        return (self._last_sealed is None
                or height - self._last_sealed > self.n // 2)

    # -- lifecycle ----------------------------------------------------------------

    def on_start(self) -> None:
        self._rng = RngFactory(self._seed).stream("clique", str(self.node_id))
        self._schedule_slot()

    def _schedule_slot(self, backoff: float = 0.0) -> None:
        if self._slot_timer is not None:
            self._slot_timer.cancel()
        next_height = self.head.height + 1
        slot_time = next_height * self.period
        delay = max(backoff, slot_time - self.now)
        if self.in_turn(next_height) != self.node_id:
            delay += float(self._rng.uniform(0.1, WIGGLE_MAX + 0.1))
        self._slot_timer = self.schedule(
            delay, lambda: self._try_seal(next_height), label="clique-slot")

    def _retry_later(self) -> None:
        """Back off after a blocked seal attempt.

        A sealer that is behind schedule but not allowed to seal (not its
        turn, or it sealed too recently) must wait a positive delay —
        retrying at the same instant would livelock the simulation.
        """
        self._schedule_slot(backoff=self.period * 0.25)

    def _try_seal(self, height: int) -> None:
        if self.head.height + 1 != height:
            self._schedule_slot()
            return
        in_turn = self.in_turn(height) == self.node_id
        if not in_turn and any(
                b.height == height and b.difficulty == 2
                for b in self.blocks.values()):
            self._retry_later()
            return
        if not self._can_seal(height):
            self._retry_later()
            return
        value = self.next_payload()
        block = CliqueBlock(
            # the header digest: ids are equal exactly when height, sealer
            # and parent are
            block_id=digest(height, self.node_id, self.head.block_id),
            height=height,
            parent_id=self.head.block_id,
            sealer=self.node_id,
            difficulty=2 if in_turn else 1,
            value=value,
            total_difficulty=self.head.total_difficulty + (2 if in_turn else 1))
        self._last_sealed = height
        self.count("blocks_sealed")
        self.blocks[block.block_id] = block
        self._adopt(block)
        self.broadcast(Message("block", self.node_id, {"block": block},
                               size=BLOCK_BASE_SIZE), include_self=False)
        self._schedule_slot()

    def on_message(self, message: Message) -> None:
        if message.kind != "block":
            return
        block: CliqueBlock = message.payload["block"]
        if block.block_id in self.blocks:
            return
        if block.parent_id not in self.blocks:
            # orphan: keep it; the parent may arrive later (rare in tests)
            self.blocks[block.block_id] = block
            return
        self.blocks[block.block_id] = block
        self._adopt(block)
        self._schedule_slot()

    # -- chain selection -------------------------------------------------------------

    def _adopt(self, block: CliqueBlock) -> None:
        if block.total_difficulty <= self.head.total_difficulty:
            return
        self.head = block
        self._decide_confirmed()

    def _decide_confirmed(self) -> None:
        """Report blocks buried under ``confirmations`` descendants."""
        confirmed_height = self.head.height - self.confirmations
        if confirmed_height <= self._decided_up_to:
            return
        # walk back from head to collect the confirmed prefix
        chain: List[CliqueBlock] = []
        cursor: Optional[CliqueBlock] = self.head
        while cursor is not None and cursor.height > self._decided_up_to:
            if cursor.height <= confirmed_height:
                chain.append(cursor)
            cursor = self.blocks.get(cursor.parent_id)
        for entry in reversed(chain):
            self.decide(entry.height, entry.value)
        self._decided_up_to = confirmed_height
