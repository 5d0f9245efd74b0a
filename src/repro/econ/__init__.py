"""Economic layer: per-chain fee markets and attacker economics."""
