"""IBFT — Istanbul Byzantine Fault Tolerance (Quorum's consensus, §5.2).

A PBFT-style protocol with three phases per height: the proposer of the
current round broadcasts PRE-PREPARE with the block; validators broadcast
PREPARE; on 2f+1 PREPAREs they broadcast COMMIT; on 2f+1 COMMITs the block
is final (immediate finality — Quorum "provides immediate finality", §6.2).
A ROUND-CHANGE sub-protocol with exponentially growing timeouts replaces a
stalled proposer.

This is the message-level correctness reference for the analytic Quorum
model. The paper's §6.3 collapse under constant overload corresponds to
round-change cascades, which this implementation exhibits when proposal
delays exceed the round timeout (see tests/consensus/test_ibft.py).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

from repro.consensus.base import Message, Replica

PROPOSAL_BASE_SIZE = 600


@dataclass
class IBFTProposal:
    """A proposed block for (height, round)."""

    height: int
    round: int
    value: object
    digest: str


class IBFTReplica(Replica):
    """One IBFT validator."""

    def __init__(self, base_timeout: float = 4.0, max_timeout: float = 120.0,
                 proposal_delay: float = 0.0) -> None:
        super().__init__()
        self.base_timeout = base_timeout
        self.max_timeout = max_timeout
        # artificial time the proposer takes to build a block; tests use it
        # to provoke round-change cascades (the §6.3 overload behaviour)
        self.proposal_delay = proposal_delay
        self.height = 1
        self.round = 0
        # heights >= self.height only: a passed height is never read, so its
        # messages are ignored and _enter_height drops its entries
        self._prepares: Dict[Tuple[int, int, str], Set[int]] = {}
        self._commits: Dict[Tuple[int, int, str], Set[int]] = {}
        self._round_changes: Dict[Tuple[int, int], Set[int]] = {}
        self._proposal: Optional[IBFTProposal] = None
        self._sent_prepare: Set[Tuple[int, int]] = set()
        self._sent_commit: Set[Tuple[int, int]] = set()
        self._timer = None
        self.round_changes_seen = 0

    # -- helpers --------------------------------------------------------------

    def proposer_of(self, height: int, round_: int) -> int:
        return (height + round_) % self.n

    def _timeout_for(self, round_: int) -> float:
        return min(self.max_timeout, self.base_timeout * (2 ** min(8, round_)))

    def _arm_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
        height, round_ = self.height, self.round
        self._timer = self.schedule(
            self._timeout_for(round_),
            lambda: self._on_timeout(height, round_),
            label="ibft-timer")

    # -- lifecycle ---------------------------------------------------------------

    def on_start(self) -> None:
        self._start_round()

    def on_recover(self) -> None:
        """Rejoin after a crash: state-sync decided heights, restart rounds.

        IBFT instances are strictly sequential per height, so a node that
        slept through heights h..h+k can never re-run them — real deployments
        download the committed blocks from peers before rejoining consensus.
        The harness's decision log plays the role of that block store: the
        recovered node adopts every contiguous decided height it missed
        (recording its own commit for each, which keeps the agreement
        invariant checkable), then resumes the protocol at the next height.
        """
        decided: Dict[int, object] = {}
        for decision in self.harness.decisions:
            decided.setdefault(decision.height, decision.value)
        height = self.height
        while height in decided:
            self.decide(height, decided[height])
            height += 1
        self._enter_height(height)

    def _enter_height(self, height: int) -> None:
        self.height = height
        self.round = 0
        for votes in (self._prepares, self._commits, self._round_changes):
            if votes:
                for key in [key for key in votes if key[0] < height]:
                    del votes[key]
        for sent in (self._sent_prepare, self._sent_commit):
            sent.difference_update([key for key in sent if key[0] < height])
        self._start_round()

    def _start_round(self) -> None:
        self._proposal = None
        self._arm_timer()
        if self.proposer_of(self.height, self.round) == self.node_id:
            if self.proposal_delay > 0:
                height, round_ = self.height, self.round
                self.schedule(self.proposal_delay,
                              lambda: self._maybe_propose(height, round_),
                              label="ibft-build")
            else:
                self._maybe_propose(self.height, self.round)

    def _maybe_propose(self, height: int, round_: int) -> None:
        if (height, round_) != (self.height, self.round):
            return
        value = self.next_payload()
        proposal = IBFTProposal(height, round_, value,
                                digest=f"h{height}r{round_}:{value}")
        self.count("proposals")
        self.broadcast(Message("pre-prepare", self.node_id,
                               {"proposal": proposal},
                               size=PROPOSAL_BASE_SIZE))

    on_message = Replica.dispatch

    # -- three phases ----------------------------------------------------------------

    def _on_pre_prepare(self, message: Message) -> None:
        proposal: IBFTProposal = message.payload["proposal"]
        if proposal.height != self.height or proposal.round != self.round:
            return
        if message.sender != self.proposer_of(proposal.height, proposal.round):
            return
        self._proposal = proposal
        key = (proposal.height, proposal.round)
        if key in self._sent_prepare:
            return
        self._sent_prepare.add(key)
        self.count("prepares_cast")
        self.broadcast(Message("prepare", self.node_id, {
            "height": proposal.height, "round": proposal.round,
            "digest": proposal.digest}))

    def _on_prepare(self, message: Message) -> None:
        height = message.payload["height"]
        round_ = message.payload["round"]
        digest = message.payload["digest"]
        if height < self.height:
            return
        voters = self._prepares.get((height, round_, digest))
        if voters is None:
            voters = self._prepares[height, round_, digest] = set()
        voters.add(message.sender)
        if (height, round_) != (self.height, self.round):
            return
        key = (height, round_)
        if (len(voters) >= self.quorum and self._proposal is not None
                and self._proposal.digest == digest
                and key not in self._sent_commit):
            self._sent_commit.add(key)
            self.broadcast(Message("commit", self.node_id, {
                "height": height, "round": round_, "digest": digest}))

    def _on_commit(self, message: Message) -> None:
        height = message.payload["height"]
        round_ = message.payload["round"]
        digest = message.payload["digest"]
        if height < self.height:
            return
        voters = self._commits.get((height, round_, digest))
        if voters is None:
            voters = self._commits[height, round_, digest] = set()
        voters.add(message.sender)
        if height != self.height:
            return
        if (len(voters) >= self.quorum and self._proposal is not None
                and self._proposal.digest == digest):
            self._decide(self._proposal)

    def _decide(self, proposal: IBFTProposal) -> None:
        self.decide(proposal.height, proposal.value)
        self._enter_height(proposal.height + 1)

    # -- round changes ------------------------------------------------------------------

    def _on_timeout(self, height: int, round_: int) -> None:
        if (height, round_) != (self.height, self.round):
            return
        self.round_changes_seen += 1
        self.count("round_changes")
        next_round = round_ + 1
        self.broadcast(Message("round-change", self.node_id, {
            "height": height, "round": next_round}))

    def _on_round_change(self, message: Message) -> None:
        height = message.payload["height"]
        round_ = message.payload["round"]
        if height < self.height:
            return
        voters = self._round_changes.setdefault((height, round_), set())
        voters.add(message.sender)
        if height != self.height or round_ <= self.round:
            return
        # f+1 round-changes: catch up even without having timed out
        if len(voters) >= self.f + 1 and self.node_id not in voters:
            voters.add(self.node_id)
            self.broadcast(Message("round-change", self.node_id, {
                "height": height, "round": round_}))
        if len(voters) >= self.quorum:
            self.round = round_
            self._start_round()
