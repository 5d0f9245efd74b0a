"""A message-level replica keeps only the state it can still act on.

A HotStuff or Clique block id is a fixed-size header digest, so a long
chain does not make its ids longer; IBFT's vote tables hold no height a
replica has passed, HotStuff's none below ``view - 1``, and BA*'s no
passed round (cert votes: no decided round). Memory then
grows linearly with the chain (blocks and decisions are kept), not with
its square.
"""

from __future__ import annotations

import itertools
import tracemalloc

from repro.consensus.base import Message
from repro.consensus.hotstuff import _block_id
from repro.consensus.testbed import build_harness
from repro.sim.byzantine import equivocal_variant

GENESIS = ("genesis", "genesis")


def _child(view, parent):
    """(recursive string id, digest id) of the block of *view* on *parent*."""
    recursive, hashed = parent
    return f"b{view}({recursive})", _block_id(view, hashed)


def _marked(node, marked=True):
    """*node*'s ids as the equivocation adversary rewrites a vote for it."""
    return tuple(
        equivocal_variant(Message("vote", 0, {"view": 1, "block_id": ident}),
                          marked)[0].payload["block_id"]
        for ident in node)


def test_digest_ids_are_equal_exactly_when_recursive_ids_were():
    a = _child(1, GENESIS)
    b = _child(2, a)
    b_duplicate = _child(2, a)          # the leader proposes (2, a) twice
    b_forked = _child(3, a)
    b_marked = _marked(b)
    b_stripped = _marked(b_marked, marked=False)
    c_on_marked = _child(3, b_marked)
    c_on_stripped = _child(3, b_stripped)
    d = _child(4, c_on_marked)
    d_marked = _marked(d)
    tree = [GENESIS, a, b, b_duplicate, b_forked, b_marked, b_stripped,
            c_on_marked, c_on_stripped, d, d_marked,
            _child(5, d), _child(5, d_marked), _child(4, b_forked),
            _child(2, GENESIS), _child(3, b)]
    for (old_x, new_x), (old_y, new_y) in itertools.product(tree, repeat=2):
        assert (old_x == old_y) == (new_x == new_y), (old_x, old_y)
    assert b_duplicate == b and b_stripped == b and c_on_stripped != c_on_marked
    assert {len(new) for _, new in tree if new != "genesis"} == {
        64, 64 + len("~equiv")}


def _run(protocol, until, n=16, crashed=()):
    harness = build_harness(protocol, n=n)
    for i in range(20):
        harness.submit(f"tx-{i}")
    for node in crashed:
        harness.crash(node)
    harness.run(until=until)
    harness.check_agreement()
    assert harness.decisions
    return harness


def test_hotstuff_ids_have_one_length_and_votes_only_live_views():
    # a crashed leader's views time out, so new-view tables fill too
    harness = _run("hotstuff", 0.5, crashed=(3,))
    for replica in harness.replicas:
        if replica.node_id in harness.crashed:
            continue
        assert {len(ident) for ident in replica.blocks
                if ident != "genesis"} == {64}
        assert all(view >= replica.view - 1 for view in replica._votes)
        assert replica._vote_block.keys() == replica._votes.keys()
        assert all(view >= replica.view for view in replica._new_views)


def test_clique_ids_have_one_length():
    for replica in _run("clique", 12.0, n=4).replicas:
        assert {len(ident) for ident in replica.blocks
                if ident != "genesis"} == {64}


def test_ibft_vote_tables_hold_no_passed_height():
    harness = _run("ibft", 0.3)
    assert min(replica.height for replica in harness.replicas) > 100
    for replica in harness.replicas:
        for table in (replica._prepares, replica._commits,
                      replica._round_changes, replica._sent_prepare,
                      replica._sent_commit):
            assert all(key[0] >= replica.height for key in table)


def test_algorand_keeps_only_the_rounds_it_can_act_on():
    # proposals, soft votes and sent marks of a passed round are never
    # read again; cert votes are, until their round is decided
    harness = _run("algorand", 60.0)
    for replica in harness.replicas:
        assert replica.round > 25 and len(replica._decided) > 20
        for table in (replica._best_proposal, replica._soft_sent,
                      replica._cert_sent):
            assert all(round_ >= replica.round for round_ in table)
        assert all(round_ >= replica.round
                   for round_, _ in replica._soft_votes)
        assert not any(round_ in replica._decided
                       for round_, _ in replica._cert_votes)


def test_hotstuff_memory_grows_with_the_window_not_the_history():
    """Doubling the horizon doubles the heights, so linear growth stays
    near 2x; with recursive ids and unpruned vote tables the traced peak
    tripled (quadratic id bytes)."""
    tracemalloc.start()
    try:
        harness = build_harness("hotstuff", n=7)
        for i in range(20):
            harness.submit(f"tx-{i}")
        harness.run(until=0.75)
        _, half = tracemalloc.get_traced_memory()
        harness.run(until=1.5)
        _, full = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert full <= 2.2 * half, (half, full)
