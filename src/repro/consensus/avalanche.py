"""Avalanche's Snowball metastable consensus (Team Rocket, 2018) — §5.2.

Snowball decides a binary-ish choice (here: which of the competing proposals
for a height to adopt) by repeated randomized polling: each round a node
samples ``k`` peers, and if at least ``alpha`` of them prefer a value, the
node increments that value's confidence counter, switching preference when
another value's counter overtakes. After ``beta`` consecutive successful
polls for the same value, the node finalizes it.

Avalanche-the-blockchain linearises blocks on the C-Chain through repeated
Snowball instances; this module implements one instance per height, which is
enough for the correctness tests (metastability: all nodes converge to one
value even when initial preferences are split) and for validating the
analytic model's latency shape: O(log n) polling rounds of one RTT each.
"""

from __future__ import annotations

from typing import Dict, List

from repro.common.rng import RngFactory
from repro.consensus.base import Message, Replica

POLL_SIZE = 150


class SnowballReplica(Replica):
    """One node running a single-decision Snowball instance."""

    def __init__(self, k: int = 5, alpha: int = 4, beta: int = 8,
                 initial_preference: object = None, seed: int = 0,
                 poll_period: float = 0.05) -> None:
        super().__init__()
        self.k = k
        self.alpha = alpha
        self.beta = beta
        self.poll_period = poll_period
        self.preference = initial_preference
        self._rng = None  # seeded with node_id at start
        self._seed = seed
        self.confidence: Dict[object, int] = {}
        self.consecutive = 0
        self.finalized = False
        self._poll_round = 0
        self._responses: Dict[int, List[object]] = {}
        self.polls_sent = 0

    # -- lifecycle ---------------------------------------------------------------

    def on_start(self) -> None:
        self._rng = RngFactory(self._seed).stream("snowball", str(self.node_id))
        if self.preference is None:
            self.preference = self.next_payload()
        self.schedule(self.poll_period, self._poll, label="snowball-poll")

    def _poll(self) -> None:
        if self.finalized:
            return
        self._poll_round += 1
        self.count("polls")
        round_ = self._poll_round
        self._responses[round_] = []
        k = min(self.k, self.n - 1)
        peers = self._rng.choice(
            [i for i in range(self.n) if i != self.node_id],
            size=k, replace=False)
        self.polls_sent += k
        for peer in peers:
            self.send(int(peer), Message("query", self.node_id,
                                         {"round": round_}, size=POLL_SIZE))
        # close the round after a generous response window
        self.schedule(self.poll_period * 40,
                      lambda: self._close_round(round_),
                      label="snowball-close")

    def on_message(self, message: Message) -> None:
        if message.kind == "query":
            self.send(message.sender, Message(
                "response", self.node_id,
                {"round": message.payload["round"],
                 "preference": self.preference}, size=POLL_SIZE))
        elif message.kind == "response":
            round_ = message.payload["round"]
            if round_ in self._responses:
                self._responses[round_].append(message.payload["preference"])
                k = min(self.k, self.n - 1)
                if len(self._responses[round_]) >= k:
                    self._close_round(round_)

    def _close_round(self, round_: int) -> None:
        responses = self._responses.pop(round_, None)
        if responses is None or self.finalized:
            return
        counts: Dict[object, int] = {}
        for pref in responses:
            counts[pref] = counts.get(pref, 0) + 1
        winner = None
        for value, count in counts.items():
            if count >= self.alpha:
                winner = value
                break
        if winner is not None:
            self.confidence[winner] = self.confidence.get(winner, 0) + 1
            best = max(self.confidence, key=self.confidence.get)
            if best != self.preference:
                self.preference = best
            if winner == self.preference:
                self.consecutive += 1
            else:
                self.consecutive = 1
                self.preference = winner
            if self.consecutive >= self.beta:
                self.finalized = True
                self.decide(1, self.preference)
                return
        else:
            self.consecutive = 0
        self.schedule(self.poll_period, self._poll, label="snowball-poll")
