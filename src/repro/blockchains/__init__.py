"""The six simulated blockchains and their shared runtime."""
