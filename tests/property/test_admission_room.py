"""``AdmissionController.room`` against one-by-one ``submit``.

The aggregate lane builds only the transactions ``room`` says the node
takes, so the answer must be exact or withheld: for any pool fill and
shedding state, ``room(count)`` is None or exactly the number of *count*
fresh uniform transactions that ``submit`` accepts one by one, those are
the first ones, and ``turn_away`` leaves the counters where the rejected
submissions would have left them.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.chain.admission import AdmissionController
from repro.chain.mempool import Mempool, MempoolPolicy
from repro.chain.transaction import transfer
from repro.common.errors import MempoolFullError, NodeOverloadedError


def controller(capacity, pool_fill, shedding, target):
    """A capacity-only pool holding *pool_fill*, shedding as given."""
    pool = Mempool(MempoolPolicy(capacity=capacity))
    ctl = AdmissionController(pool)
    for _ in range(pool_fill):
        ctl.submit(transfer("a", "b"))
    assert len(pool) == pool_fill
    ctl.set_shedding(shedding, target)
    return pool, ctl


def submit_one_by_one(ctl, count):
    accepted = []
    for _ in range(count):
        try:
            ctl.submit(transfer("a", "b"))
        except (NodeOverloadedError, MempoolFullError):
            accepted.append(False)
        else:
            accepted.append(True)
    return accepted


@st.composite
def states(draw):
    capacity = draw(st.one_of(st.none(), st.integers(1, 12)))
    pool_fill = draw(st.integers(0, 12 if capacity is None else capacity))
    shedding = draw(st.booleans())
    target = draw(st.one_of(st.none(), st.integers(1, 16)))
    return capacity, pool_fill, shedding, target


@given(states(), st.integers(1, 30))
def test_room_is_unknown_or_what_submit_accepts(state, count):
    pool, ctl = controller(*state)
    room = ctl.room(count)
    accepted = submit_one_by_one(ctl, count)
    if room is None:
        # only a shed target the pool cannot reach goes unanswered
        capacity, _, shedding, target = state
        assert shedding and None not in (target, capacity)
        assert target > capacity
        return
    assert accepted == [True] * room + [False] * (count - room)
    # the trimmed form: submit the prefix, count the rest
    trimmed_pool, trimmed = controller(*state)
    assert submit_one_by_one(trimmed, room) == [True] * room
    if room < count:
        trimmed.turn_away(count - room)
    assert trimmed.stats() == ctl.stats()
    assert trimmed_pool.stats() == pool.stats()
    assert trimmed_pool.last_drop_reason == pool.last_drop_reason
