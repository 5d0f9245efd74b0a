"""Deterministic hashing used for block/transaction identifiers.

Real blockchains hash serialized payloads; here we hash stable string
representations. The point is not cryptographic strength but determinism and
collision-freedom.
"""

from __future__ import annotations

import hashlib
from typing import Iterable


def digest(*parts: object) -> str:
    """Deterministic 64-hex-char digest of the given parts."""
    h = hashlib.sha256()
    for part in parts:
        h.update(str(part).encode())
        h.update(b"\x00")
    return h.hexdigest()


def merkle_root(leaves: Iterable[str]) -> str:
    """Merkle root over the given leaf digests (pairwise sha256).

    An odd leaf at any level is promoted by hashing it with itself, as in
    Bitcoin-style trees. The empty tree has a well-defined root.
    """
    level = [digest(leaf) for leaf in leaves]
    if not level:
        return digest("empty-merkle-tree")
    while len(level) > 1:
        if len(level) % 2 == 1:
            level.append(level[-1])
        level = [digest(level[i], level[i + 1])
                 for i in range(0, len(level), 2)]
    return level[0]
