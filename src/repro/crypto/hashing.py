"""Deterministic hashing used for block/transaction identifiers.

Real blockchains hash serialized payloads; here we hash stable string
representations. The point is not cryptographic strength but determinism and
collision-freedom.
"""

from __future__ import annotations

import hashlib
from typing import Iterable


def digest(*parts: object) -> str:
    """Deterministic 64-hex-char digest of the given parts.

    Each part contributes ``str(part)`` and a NUL terminator; UTF-8
    encoding distributes over concatenation, so one hash call over the
    joined pieces equals one ``update`` per piece.
    """
    return hashlib.sha256(
        "".join([f"{part!s}\x00" for part in parts]).encode()).hexdigest()


def merkle_root(leaves: Iterable[str]) -> str:
    """Merkle root over the given leaf digests (pairwise sha256).

    An odd leaf at any level is promoted by hashing it with itself, as in
    Bitcoin-style trees. The empty tree has a well-defined root. A leaf
    hashes as ``digest(leaf)`` and a pair as ``digest(a, b)``, written
    out here because a block's root is 2N of them.
    """
    sha256 = hashlib.sha256
    level = [sha256(f"{leaf!s}\x00".encode()).hexdigest() for leaf in leaves]
    if not level:
        return digest("empty-merkle-tree")
    while len(level) > 1:
        if len(level) % 2 == 1:
            level.append(level[-1])
        pairs = iter(level)
        level = [sha256(f"{a}\x00{b}\x00".encode()).hexdigest()
                 for a, b in zip(pairs, pairs)]
    return level[0]
