"""Tests for the simulated cryptography layer."""

from __future__ import annotations

import pytest

from repro.common.errors import InvalidTransactionError
from repro.crypto.hashing import digest, merkle_root
from repro.crypto.signing import ECDSA, ED25519, RSA4096, SCHEMES, keypair


class TestHashing:
    def test_digest_deterministic(self):
        assert digest("a", 1) == digest("a", 1)

    def test_digest_sensitive_to_parts(self):
        assert digest("a", "b") != digest("ab")
        assert digest("a") != digest("b")

    def test_digest_is_hex64(self):
        d = digest("x")
        assert len(d) == 64
        int(d, 16)

    def test_merkle_root_empty(self):
        assert merkle_root([]) == merkle_root([])

    def test_merkle_root_depends_on_content(self):
        assert merkle_root(["a", "b"]) != merkle_root(["a", "c"])

    def test_merkle_root_depends_on_order(self):
        assert merkle_root(["a", "b"]) != merkle_root(["b", "a"])

    def test_merkle_root_odd_leaves(self):
        root = merkle_root(["a", "b", "c"])
        assert len(root) == 64

    def test_merkle_single_leaf_differs_from_empty(self):
        assert merkle_root(["a"]) != merkle_root([])

class TestSigning:
    def test_sign_verify_roundtrip(self):
        private, public = keypair("alice")
        for scheme in SCHEMES.values():
            sig = scheme.sign(private, "hello")
            assert scheme.verify(public, "hello", sig)

    def test_wrong_message_fails(self):
        private, public = keypair("alice")
        sig = ECDSA.sign(private, "hello")
        assert not ECDSA.verify(public, "tampered", sig)

    def test_wrong_key_fails(self):
        private_a, _ = keypair("alice")
        _, public_b = keypair("bob")
        sig = ECDSA.sign(private_a, "hello")
        assert not ECDSA.verify(public_b, "hello", sig)

    def test_cross_scheme_signatures_differ(self):
        private, _ = keypair("alice")
        assert ECDSA.sign(private, "m") != ED25519.sign(private, "m")

    def test_malformed_public_key_rejected(self):
        with pytest.raises(InvalidTransactionError):
            ECDSA.verify("not-a-key", "m", "sig")

    def test_keypair_deterministic(self):
        assert keypair("seed") == keypair("seed")
        assert keypair("seed") != keypair("other")

    def test_rsa_signing_is_the_slow_one(self):
        # §5.2: Avalanche's RSA4096 signing "was taking too long"
        assert RSA4096.sign_cost > 50 * ECDSA.sign_cost
        assert ED25519.sign_cost < ECDSA.sign_cost

    def test_signature_sizes(self):
        assert RSA4096.signature_size > ECDSA.signature_size
        assert ED25519.signature_size == 64
