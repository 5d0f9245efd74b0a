"""Algorand's BA* agreement with cryptographic sortition (Gilad et al.,
SOSP'17) — §5.2.

Each round, every node runs *sortition*: a private lottery (modeled with a
deterministic per-(round, step, node) hash in place of a VRF) that selects a
small committee proportional to stake. The round proceeds in steps:

1. **proposal** — sortition picks block proposers; each gossips a block with
   its priority; nodes keep the highest-priority proposal they see;
2. **soft vote** — a committee votes for the best proposal;
3. **cert vote** — a second committee certifies the winner; a node that
   collects a threshold of cert votes commits the block.

"It does not fork with high probability, so the transaction is considered
final as soon as it is included in a block" — commits here are immediate,
with no confirmation depth.
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

from repro.common.ids import short_hash
from repro.consensus.base import Message, Replica

PROPOSAL_SIZE = 600
SOFT_TIMEOUT = 1.0   # wait for proposals before soft-voting
STEP_TIMEOUT = 4.0   # per-step recovery timeout


def sortition(round_: int, step: str, node_id: int, n: int,
              expected: float) -> Tuple[bool, int]:
    """Deterministic stand-in for VRF sortition.

    Returns (selected, priority). Every node holds equal stake; the
    selection probability is ``expected / n`` and the priority is a hash,
    so the outcome is common knowledge once the "VRF proof" (the hash
    preimage inputs) is gossiped — just like Algorand.
    """
    draw = int(short_hash("sortition", round_, step, node_id), 16)
    space = 16 ** 16
    selected = draw < space * min(1.0, expected / max(1, n))
    return selected, draw


class AlgorandReplica(Replica):
    """One Algorand node running BA* rounds."""

    def __init__(self, committee_size: float = 4.0,
                 proposer_count: float = 2.0) -> None:
        super().__init__()
        self.committee_size = committee_size
        self.proposer_count = proposer_count
        self.round = 1
        self._best_proposal: Dict[int, Tuple[int, object]] = {}
        self._soft_votes: Dict[Tuple[int, str], Set[int]] = {}
        self._cert_votes: Dict[Tuple[int, str], Set[int]] = {}
        self._soft_sent: Set[int] = set()
        self._cert_sent: Set[int] = set()
        self._decided: Dict[int, object] = {}

    def committee_threshold(self) -> int:
        """Votes needed to conclude a step (majority of expected size)."""
        expected = min(self.n, self.committee_size)
        return max(1, int(expected * 0.5) + 1)

    # -- round flow -------------------------------------------------------------

    def on_start(self) -> None:
        self._start_round()

    def _start_round(self) -> None:
        round_ = self.round
        selected, priority = sortition(round_, "propose", self.node_id,
                                       self.n, self.proposer_count)
        if selected:
            value = self.next_payload()
            self.broadcast(Message("ba-proposal", self.node_id, {
                "round": round_, "priority": priority, "value": value},
                size=PROPOSAL_SIZE))
        self.schedule(SOFT_TIMEOUT, lambda: self._soft_vote(round_),
                      label="ba-soft")
        self.schedule(STEP_TIMEOUT,
                      lambda: self._recover(round_), label="ba-recover")

    on_message = Replica.dispatch

    def _on_ba_proposal(self, message: Message) -> None:
        round_ = message.payload["round"]
        priority = message.payload["priority"]
        value = message.payload["value"]
        best = self._best_proposal.get(round_)
        if best is None or priority > best[0]:
            self._best_proposal[round_] = (priority, value)

    # -- voting steps ---------------------------------------------------------------

    def _soft_vote(self, round_: int) -> None:
        if round_ != self.round or round_ in self._soft_sent:
            return
        self._soft_sent.add(round_)
        best = self._best_proposal.get(round_)
        if best is None:
            return  # recovery timeout will move the round forward
        selected, _ = sortition(round_, "soft", self.node_id, self.n,
                                self.committee_size)
        if not selected:
            return
        digest = short_hash("blk", round_, best[1])
        self.count("soft_votes")
        self.broadcast(Message("ba-soft", self.node_id, {
            "round": round_, "digest": digest, "value": best[1]}))

    def _on_ba_soft(self, message: Message) -> None:
        round_ = message.payload["round"]
        digest = message.payload["digest"]
        voters = self._soft_votes.setdefault((round_, digest), set())
        voters.add(message.sender)
        if round_ != self.round or round_ in self._cert_sent:
            return
        if len(voters) >= self.committee_threshold():
            self._cert_sent.add(round_)
            selected, _ = sortition(round_, "cert", self.node_id, self.n,
                                    self.committee_size)
            if selected:
                self.broadcast(Message("ba-cert", self.node_id, {
                    "round": round_, "digest": digest,
                    "value": message.payload["value"]}))

    def _on_ba_cert(self, message: Message) -> None:
        round_ = message.payload["round"]
        digest = message.payload["digest"]
        voters = self._cert_votes.setdefault((round_, digest), set())
        voters.add(message.sender)
        if round_ in self._decided:
            return
        if len(voters) >= self.committee_threshold():
            value = message.payload["value"]
            self._decided[round_] = value
            self.decide(round_, value)
            if round_ == self.round:
                self.round += 1
                self._start_round()

    # -- recovery ---------------------------------------------------------------------

    def _recover(self, round_: int) -> None:
        """Move on if a round stalls (empty committees at small n)."""
        if round_ != self.round or round_ in self._decided:
            return
        self.round += 1
        self._start_round()
