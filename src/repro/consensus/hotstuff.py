"""Chained HotStuff (Yin et al., PODC'19) — Diem's consensus core (§5.2).

Message-level implementation of the three-chain variant: each view's leader
proposes a block justified by the highest known quorum certificate; replicas
vote to the *next* leader; a block commits once it heads a chain of three
blocks with consecutive views. A pacemaker with exponential timeouts rotates
leaders when views stall.

The implementation favours clarity over micro-optimisation — it is the
correctness reference the analytic Diem model is validated against. A
block id is a fixed-size header digest and vote tables keep only views the
pacemaker can read, so memory grows linearly with the chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.consensus.base import Message, Replica
from repro.crypto.hashing import digest

PROPOSAL_BASE_SIZE = 600


@dataclass(frozen=True)
class QuorumCertificate:
    """Certificate that a quorum voted for *block_id* in *view*."""

    view: int
    block_id: str

    @staticmethod
    def genesis() -> "QuorumCertificate":
        return QuorumCertificate(view=0, block_id="genesis")


@dataclass
class HSBlock:
    """A HotStuff block: value + justification of its parent."""

    block_id: str
    view: int
    height: int
    parent_id: str
    justify: QuorumCertificate
    value: object = None


def _block_id(view: int, parent_id: str) -> str:
    """The digest of a block's header ``(view, parent_id)``.

    Two ids are equal exactly when their views and parents are, so a
    leader's duplicate proposals for one ``(view, parent)`` are one block,
    and an adversary's marked id is a distinct parent like any other.
    """
    return digest(view, parent_id)


class HotStuffReplica(Replica):
    """One chained-HotStuff replica."""

    def __init__(self, base_timeout: float = 2.0,
                 max_timeout: float = 60.0) -> None:
        super().__init__()
        self.base_timeout = base_timeout
        self.max_timeout = max_timeout
        self.view = 1
        genesis = HSBlock("genesis", 0, 0, "", QuorumCertificate.genesis())
        self.blocks: Dict[str, HSBlock] = {"genesis": genesis}
        self.high_qc = QuorumCertificate.genesis()
        self.locked_qc = QuorumCertificate.genesis()
        self.last_committed_height = 0
        # views >= view - 1 (new-views >= view): older ones are never read,
        # so their messages are ignored and _enter_view drops their entries
        self._votes: Dict[int, Set[int]] = {}        # view -> voters
        self._vote_block: Dict[int, str] = {}        # view -> block voted
        self._new_views: Dict[int, Set[int]] = {}    # view -> senders
        self._timer = None
        self._timeouts_fired = 0

    # -- helpers ------------------------------------------------------------------

    def leader_of(self, view: int) -> int:
        return view % self.n

    def _current_timeout(self) -> float:
        return min(self.max_timeout,
                   self.base_timeout * (2 ** min(10, self._timeouts_fired)))

    def _arm_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
        view_at_arm = self.view
        self._timer = self.schedule(
            self._current_timeout(),
            lambda: self._on_timeout(view_at_arm),
            label="hs-pacemaker")

    def _extends(self, block: HSBlock, ancestor_id: str) -> bool:
        cursor: Optional[HSBlock] = block
        while cursor is not None:
            if cursor.block_id == ancestor_id:
                return True
            cursor = self.blocks.get(cursor.parent_id)
        return False

    # -- protocol ----------------------------------------------------------------------

    def on_start(self) -> None:
        self._arm_timer()
        if self.leader_of(self.view) == self.node_id:
            self._propose()

    def on_recover(self) -> None:
        """Rejoin after a crash: re-arm the pacemaker and catch up naturally.

        Chained HotStuff needs no explicit state transfer for safety — the
        recovered replica's lock is stale but still safe, and incoming
        proposals carry the QCs it needs to advance its view and resume
        voting. Heights committed while it was down simply stay uncommitted
        locally (their parents never arrived), which agreement allows.
        """
        self._timeouts_fired = 0
        self._arm_timer()

    def _propose(self) -> None:
        parent = self.blocks.get(self.high_qc.block_id)
        if parent is None:
            # the QC'd block never reached this leader (lossy network);
            # without the parent it cannot extend the chain — let the
            # pacemaker rotate to a leader that has it
            return
        value = self.next_payload()
        block = HSBlock(
            block_id=_block_id(self.view, parent.block_id),
            view=self.view,
            height=parent.height + 1,
            parent_id=parent.block_id,
            justify=self.high_qc,
            value=value)
        self.blocks[block.block_id] = block
        self.count("proposals")
        self.broadcast(Message(
            "proposal", self.node_id,
            {"block": block}, size=PROPOSAL_BASE_SIZE))

    on_message = Replica.dispatch

    # -- proposals -----------------------------------------------------------------------

    def _on_proposal(self, message: Message) -> None:
        block: HSBlock = message.payload["block"]
        self.blocks.setdefault(block.block_id, block)
        self._update_high_qc(block.justify)
        self._try_commit(block)
        # a replica votes at most once per view: voting enters view + 1
        if block.view < self.view:
            return
        if not self._safe_to_vote(block):
            return
        self._enter_view(block.view + 1)
        vote = Message("vote", self.node_id,
                       {"view": block.view, "block_id": block.block_id})
        self.count("votes_cast")
        self.send(self.leader_of(block.view + 1), vote)

    def _safe_to_vote(self, block: HSBlock) -> bool:
        locked_block = self.blocks.get(self.locked_qc.block_id)
        if locked_block is None:
            return True
        if self._extends(block, locked_block.block_id):
            return True
        return block.justify.view > self.locked_qc.view

    # -- votes ---------------------------------------------------------------------------

    def _on_vote(self, message: Message) -> None:
        view = message.payload["view"]
        block_id = message.payload["block_id"]
        if self.leader_of(view + 1) != self.node_id or view < self.view - 1:
            return
        voters = self._votes.get(view)
        if voters is None:
            voters = self._votes[view] = set()
        voters.add(message.sender)
        self._vote_block[view] = block_id
        if len(voters) >= self.quorum and view + 1 == self.view:
            qc = QuorumCertificate(view=view, block_id=block_id)
            self._update_high_qc(qc)
            self._propose()

    # -- pacemaker --------------------------------------------------------------------------

    def _on_timeout(self, view_at_arm: int) -> None:
        if view_at_arm != self.view:
            return
        self._timeouts_fired += 1
        self.count("timeouts")
        self._enter_view(self.view + 1)
        self.send(self.leader_of(self.view),
                  Message("new-view", self.node_id,
                          {"view": self.view, "high_qc": self.high_qc}))

    def _on_new_view(self, message: Message) -> None:
        view = message.payload["view"]
        self._update_high_qc(message.payload["high_qc"])
        if self.leader_of(view) != self.node_id or view < self.view:
            return
        senders = self._new_views.setdefault(view, set())
        senders.add(message.sender)
        if len(senders) >= self.quorum and view == self.view:
            self._propose()

    def _enter_view(self, view: int) -> None:
        if view <= self.view:
            return
        self.view = view
        self._timeouts_fired = 0
        self._arm_timer()
        if self._votes:
            for stale in [v for v in self._votes if v < view - 1]:
                del self._votes[stale], self._vote_block[stale]
        if self._new_views:
            for stale in [v for v in self._new_views if v < view]:
                del self._new_views[stale]
        # a leader that already holds quorum votes for view-1 proposes now
        votes = self._votes.get(view - 1)
        if (votes is not None and self.leader_of(view) == self.node_id
                and len(votes) >= self.quorum):
            qc = QuorumCertificate(view - 1, self._vote_block[view - 1])
            self._update_high_qc(qc)
            self._propose()

    # -- commit rule ----------------------------------------------------------------------------

    def _update_high_qc(self, qc: QuorumCertificate) -> None:
        if qc.view > self.high_qc.view:
            self.high_qc = qc

    def _try_commit(self, block: HSBlock) -> None:
        """Three-chain rule: b0 <- b1 <- b2 with consecutive views commits b0.

        Also advances the lock to the two-chain head (b1's QC).
        """
        b2 = self.blocks.get(block.justify.block_id)
        if b2 is None:
            return
        b1 = self.blocks.get(b2.justify.block_id)
        if b1 is None:
            return
        if b1.justify.view > self.locked_qc.view:
            self.locked_qc = b1.justify
        b0 = self.blocks.get(b1.justify.block_id)
        if b0 is None:
            return
        if b2.view == b1.view + 1 and b1.view == b0.view + 1:
            self._commit_chain(b0)

    def _commit_chain(self, block: HSBlock) -> None:
        to_commit: List[HSBlock] = []
        cursor: Optional[HSBlock] = block
        while (cursor is not None and cursor.height > self.last_committed_height
               and cursor.block_id != "genesis"):
            to_commit.append(cursor)
            cursor = self.blocks.get(cursor.parent_id)
        for entry in reversed(to_commit):
            self.decide(entry.height, entry.value)
        if to_commit:
            self.last_committed_height = to_commit[0].height
