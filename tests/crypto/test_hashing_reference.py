"""``digest`` and ``merkle_root`` against their loop-and-update references.

Both are written as one pass of C calls (one ``sha256`` over the joined
pieces; leaves and pairs hashed inline). The references below are the
constructions they replaced, one ``update`` per piece and one generic
digest per node, and the two must agree byte for byte on every input.
Run-level bytes are pinned by tests/chain/test_block_hash_golden.py.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.hashing import digest, merkle_root


def reference_digest(*parts: object) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(str(part).encode())
        h.update(b"\x00")
    return h.hexdigest()


def reference_merkle_root(leaves: Iterable[str]) -> str:
    level = [reference_digest(leaf) for leaf in leaves]
    if not level:
        return reference_digest("empty-merkle-tree")
    while len(level) > 1:
        if len(level) % 2 == 1:
            level.append(level[-1])
        level = [reference_digest(level[i], level[i + 1])
                 for i in range(0, len(level), 2)]
    return level[0]


# str.encode() refuses lone surrogates in both forms alike
TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
PARTS = st.one_of(
    TEXT,
    st.sampled_from(["", "\x00", "a\x00b", "séndér", "れしぴ", "\x00\x00"]),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.none(),
    st.tuples(st.integers(), TEXT),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(PARTS, max_size=8))
def test_digest_equals_the_update_loop(parts):
    assert digest(*parts) == reference_digest(*parts)


def test_digest_of_no_parts_is_the_empty_hash():
    assert digest() == hashlib.sha256(b"").hexdigest() == reference_digest()


def test_a_part_boundary_is_not_a_concatenation():
    assert digest("a", "b") != digest("ab") != digest("a\x00b")
    assert digest("a\x00b") == reference_digest("a\x00b")


@settings(max_examples=150, deadline=None)
@given(st.lists(TEXT, max_size=33))
def test_merkle_root_equals_the_digest_loop(leaves):
    expected = reference_merkle_root(leaves)
    assert merkle_root(leaves) == expected
    # Block.tx_root passes a generator
    assert merkle_root(leaf for leaf in leaves) == expected


def test_merkle_root_at_every_small_size():
    for n in range(34):
        leaves = [digest("leaf", i) for i in range(n)]
        assert merkle_root(iter(leaves)) == reference_merkle_root(leaves), n
