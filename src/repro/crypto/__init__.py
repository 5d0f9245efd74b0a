"""Simulated cryptography: deterministic hashing and cost-modeled signing."""

from repro import lazy_package

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

__getattr__, __dir__ = lazy_package(globals(), {
    "repro.crypto.hashing": ("digest", "merkle_root"),
    "repro.crypto.signing": (
        "ECDSA", "ED25519", "RSA4096", "SCHEMES", "SignatureScheme", "keypair",
    ),
})
