"""Shared utilities: errors, units, deterministic RNG streams and ids."""
