"""Simulated cryptography: deterministic hashing and cost-modeled signing."""

from repro.crypto.hashing import digest, merkle_root
from repro.crypto.signing import (
    ECDSA,
    ED25519,
    RSA4096,
    SCHEMES,
    SignatureScheme,
    keypair,
)

__all__ = [
    "ECDSA",
    "ED25519",
    "RSA4096",
    "SCHEMES",
    "SignatureScheme",
    "digest",
    "keypair",
    "merkle_root",
]
