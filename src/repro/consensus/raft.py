"""Raft — Quorum's crash-fault-tolerant consensus option (§5.2).

"Quorum ... features different consensus algorithms: Raft, which only
tolerates crash failures, and IBFT and QBFT, which both tolerate Byzantine
failures." The paper runs IBFT exclusively (Raft's weaker fault model);
this implementation exists so the trade-off is testable: Raft commits in a
single majority round trip (fast), IBFT needs two all-to-all phases but
survives Byzantine replicas.

The implementation follows the Raft paper's core: randomized election
timeouts, terms, heartbeats/AppendEntries with log matching, commit on
majority replication. Good enough for the safety/liveness tests and the
latency comparison; no snapshotting or membership changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.common.rng import RngFactory
from repro.consensus.base import Message, Replica

HEARTBEAT_INTERVAL = 0.3
APPEND_SIZE = 400


@dataclass
class LogEntry:
    term: int
    value: object


class RaftReplica(Replica):
    """One Raft server."""

    def __init__(self, election_timeout: float = 1.5, seed: int = 0) -> None:
        super().__init__()
        self.base_election_timeout = election_timeout
        self._seed = seed
        self._rng = None
        self.term = 0
        self.voted_for: Optional[int] = None
        self.role = "follower"
        self.log: List[LogEntry] = []
        self.commit_index = 0      # number of committed entries
        self._votes: Set[int] = set()
        self._match_index: Dict[int, int] = {}
        self._election_timer = None
        self._heartbeat_task = None
        self.leader_terms_won = 0

    # -- timers --------------------------------------------------------------

    def _election_delay(self) -> float:
        return self.base_election_timeout * float(self._rng.uniform(1.0, 2.0))

    def _arm_election_timer(self) -> None:
        if self._election_timer is not None:
            self._election_timer.cancel()
        term_at_arm = self.term
        self._election_timer = self.schedule(
            self._election_delay(),
            lambda: self._on_election_timeout(term_at_arm),
            label="raft-election")

    def on_start(self) -> None:
        self._rng = RngFactory(self._seed).stream("raft", str(self.node_id))
        self._arm_election_timer()

    # -- elections -------------------------------------------------------------

    def _on_election_timeout(self, term_at_arm: int) -> None:
        if self.role == "leader" or self.term != term_at_arm:
            return
        self.term += 1
        self.role = "candidate"
        self.voted_for = self.node_id
        self._votes = {self.node_id}
        self._arm_election_timer()
        self.count("elections_started")
        last_term = self.log[-1].term if self.log else 0
        self.broadcast(Message("request-vote", self.node_id, {
            "term": self.term, "last_index": len(self.log),
            "last_term": last_term}), include_self=False)

    def _on_request_vote(self, message: Message) -> None:
        term = message.payload["term"]
        if term > self.term:
            self._step_down(term)
        up_to_date = (
            message.payload["last_term"],
            message.payload["last_index"],
        ) >= (self.log[-1].term if self.log else 0, len(self.log))
        grant = (term == self.term and up_to_date
                 and self.voted_for in (None, message.sender))
        if grant:
            self.voted_for = message.sender
            self._arm_election_timer()
        self.send(message.sender, Message("vote-reply", self.node_id, {
            "term": self.term, "granted": grant}))

    def _on_vote_reply(self, message: Message) -> None:
        if message.payload["term"] > self.term:
            self._step_down(message.payload["term"])
            return
        if self.role != "candidate" or message.payload["term"] != self.term:
            return
        if message.payload["granted"]:
            self._votes.add(message.sender)
            if len(self._votes) > self.n // 2:
                self._become_leader()

    def _become_leader(self) -> None:
        self.role = "leader"
        self.leader_terms_won += 1
        self.count("terms_won")
        self._match_index = {i: 0 for i in range(self.n)}
        self._match_index[self.node_id] = len(self.log)
        self._send_heartbeats()

    def _step_down(self, term: int) -> None:
        self.term = term
        self.role = "follower"
        self.voted_for = None
        self._arm_election_timer()

    # -- replication -------------------------------------------------------------

    def propose(self, value: object) -> bool:
        """Leader-side client request; returns False when not the leader."""
        if self.role != "leader":
            return False
        self.log.append(LogEntry(self.term, value))
        self._match_index[self.node_id] = len(self.log)
        self._send_heartbeats()
        return True

    def _send_heartbeats(self) -> None:
        if self.role != "leader":
            return
        for peer in range(self.n):
            if peer == self.node_id:
                continue
            sent = self._match_index.get(peer, 0)
            entries = self.log[sent:]
            self.send(peer, Message("append", self.node_id, {
                "term": self.term,
                "prev_index": sent,
                "prev_term": self.log[sent - 1].term if sent else 0,
                "entries": list(entries),
                "leader_commit": self.commit_index,
            }, size=APPEND_SIZE + 64 * len(entries)))
        self.schedule(HEARTBEAT_INTERVAL, self._send_heartbeats,
                      label="raft-heartbeat")

    def _on_append(self, message: Message) -> None:
        term = message.payload["term"]
        if term < self.term:
            self.send(message.sender, Message("append-reply", self.node_id, {
                "term": self.term, "success": False, "match": 0}))
            return
        if term > self.term or self.role != "follower":
            self._step_down(term)
        self._arm_election_timer()
        prev_index = message.payload["prev_index"]
        prev_term = message.payload["prev_term"]
        if prev_index > len(self.log) or (
                prev_index > 0 and self.log[prev_index - 1].term != prev_term):
            self.send(message.sender, Message("append-reply", self.node_id, {
                "term": self.term, "success": False, "match": 0}))
            return
        entries = message.payload["entries"]
        self.log = self.log[:prev_index] + list(entries)
        leader_commit = message.payload["leader_commit"]
        self._advance_commit(min(leader_commit, len(self.log)))
        self.send(message.sender, Message("append-reply", self.node_id, {
            "term": self.term, "success": True, "match": len(self.log)}))

    def _on_append_reply(self, message: Message) -> None:
        if message.payload["term"] > self.term:
            self._step_down(message.payload["term"])
            return
        if self.role != "leader":
            return
        if message.payload["success"]:
            self._match_index[message.sender] = message.payload["match"]
            self._try_commit()
        else:
            # back off one entry and retry on the next heartbeat
            current = self._match_index.get(message.sender, 0)
            self._match_index[message.sender] = max(0, current - 1)

    def _try_commit(self) -> None:
        for index in range(len(self.log), self.commit_index, -1):
            replicated = sum(1 for match in self._match_index.values()
                             if match >= index)
            if (replicated > self.n // 2
                    and self.log[index - 1].term == self.term):
                self._advance_commit(index)
                break

    def _advance_commit(self, new_commit: int) -> None:
        while self.commit_index < new_commit:
            self.commit_index += 1
            self.decide(self.commit_index,
                        self.log[self.commit_index - 1].value)

    on_message = Replica.dispatch
