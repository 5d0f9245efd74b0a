"""Simulated cryptography: deterministic hashing and cost-modeled signing."""
