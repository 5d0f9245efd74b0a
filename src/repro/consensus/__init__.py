"""Consensus protocols: message-level implementations and analytic models."""
