"""Compact deterministic identifiers used throughout the simulation."""

from __future__ import annotations

import hashlib


def short_hash(*parts: object, length: int = 16) -> str:
    """Deterministic hex identifier derived from the given parts."""
    digest = hashlib.sha256("|".join(str(p) for p in parts).encode())
    return digest.hexdigest()[:length]
