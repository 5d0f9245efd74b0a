"""Solana's Tower BFT over a Proof-of-History stream (Yakovenko) — §5.2.

Proof of History is a verifiable delay function: the leader hashes
continuously, and the hash count is a cryptographic clock. Slots last 400 ms
("To append a block every 400 milliseconds..."); the slot leader streams its
block, and validators vote on forks with exponentially growing lockouts
(Tower BFT): a vote at lockout level ``d`` forbids voting for a conflicting
fork for ``2^d`` slots, so once a block gathers votes from a supermajority
it becomes increasingly irreversible. Clients wait a configurable number of
confirmations (the paper uses 30) before treating a transaction as final.

The implementation models the leader schedule, the PoH slot clock, vote
aggregation and the rooting rule (a block with ``MAX_LOCKOUT_DEPTH``
descendant votes is *rooted* = final). Forks are modeled by slots whose
leader's block misses the slot deadline at some validators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set

from repro.consensus.base import Message, Replica

SLOT_DURATION = 0.4
BLOCK_BASE_SIZE = 800
ROOT_DEPTH = 8  # votes this deep in a row root the block (scaled-down tower)


@dataclass
class PoHBlock:
    slot: int
    parent_slot: int
    leader: int
    value: object = None
    poh_count: int = 0


class TowerReplica(Replica):
    """One Solana validator."""

    def __init__(self, confirmations: int = 30, slot_duration: float = SLOT_DURATION,
                 root_depth: int = ROOT_DEPTH) -> None:
        super().__init__()
        self.confirmations = confirmations
        self.slot_duration = slot_duration
        self.root_depth = root_depth
        self.blocks: Dict[int, PoHBlock] = {
            0: PoHBlock(0, -1, -1, value=None)}
        # slot -> bank hash -> voters. Votes name the hash of the bank they
        # lock on (as real Tower votes do), so votes for conflicting forks of
        # one slot never pool into a single supermajority.
        self.votes: Dict[int, Dict[str, Set[int]]] = {}
        self.tower: List[int] = []            # own vote stack (slots)
        self.rooted_up_to = 0
        self._decided: Set[int] = set()
        self.current_slot = 0

    def leader_of(self, slot: int) -> int:
        return slot % self.n

    @staticmethod
    def bank_hash(block: PoHBlock) -> str:
        """Stand-in for the bank hash a Solana vote signs over."""
        return f"s{block.slot}:{block.value}"

    # -- lifecycle ------------------------------------------------------------------

    def on_start(self) -> None:
        self._schedule_slot(1)

    def _schedule_slot(self, slot: int) -> None:
        fire_at = slot * self.slot_duration
        self.schedule(max(0.0, fire_at - self.now),
                      lambda: self._on_slot(slot), label="poh-slot")

    def _on_slot(self, slot: int) -> None:
        self.current_slot = slot
        if self.leader_of(slot) == self.node_id:
            parent_slot = self._heaviest_slot(slot)
            block = PoHBlock(slot, parent_slot, self.node_id,
                             value=self.next_payload(),
                             poh_count=slot * 1000)
            self.blocks[slot] = block
            self.broadcast(Message("shred", self.node_id, {"block": block},
                                   size=BLOCK_BASE_SIZE), include_self=False)
            self._vote(slot)
        self._schedule_slot(slot + 1)

    def _heaviest_slot(self, before: int) -> int:
        known = [s for s in self.blocks if s < before]
        return max(known) if known else 0

    # -- voting -----------------------------------------------------------------------

    def on_message(self, message: Message) -> None:
        if message.kind == "shred":
            block: PoHBlock = message.payload["block"]
            if block.slot not in self.blocks:
                self.blocks[block.slot] = block
                # vote if the block arrived within its slot window (or the
                # next one) — late blocks are skipped, creating skipped slots
                if self.current_slot - block.slot <= 1:
                    self._vote(block.slot)
        elif message.kind == "vote":
            slot = message.payload["slot"]
            bank = message.payload["hash"]
            voters = self.votes.setdefault(slot, {}).setdefault(bank, set())
            voters.add(message.sender)
            self._try_root()

    def _vote(self, slot: int) -> None:
        # Tower lockout check: never vote for a slot older than the lockout
        # of a previous vote allows (simplified: strictly increasing slots).
        if self.tower and slot <= self.tower[-1]:
            return
        self.tower.append(slot)
        if len(self.tower) > 32:
            self.tower.pop(0)
        bank = self.bank_hash(self.blocks[slot])
        self.votes.setdefault(slot, {}).setdefault(bank, set()).add(
            self.node_id)
        self.count("votes_cast")
        self.broadcast(Message("vote", self.node_id,
                               {"slot": slot, "hash": bank}),
                       include_self=False)
        self._try_root()

    # -- rooting / finality ------------------------------------------------------------

    def _supermajority(self) -> int:
        return (2 * self.n) // 3 + 1

    def _try_root(self) -> None:
        """Root every slot that has a supermajority-voted descendant chain
        at least ``root_depth`` slots deeper.

        A slot only counts when the supermajority formed on the bank hash
        of the block *this* validator holds — votes on a conflicting fork
        of the slot are tallied separately and cannot root our copy.
        """
        threshold = self._supermajority()
        voted_slots = sorted(
            s for s, by_hash in self.votes.items() if s in self.blocks
            and len(by_hash.get(self.bank_hash(self.blocks[s]), ()))
            >= threshold)
        if not voted_slots:
            return
        deepest = voted_slots[-1]
        root_cutoff = deepest - self.root_depth
        for slot in voted_slots:
            if slot <= self.rooted_up_to or slot > root_cutoff:
                continue
            if slot in self._decided:
                continue
            self._decided.add(slot)
            self.decide(slot, self.blocks[slot].value)
            self.rooted_up_to = slot
