"""The five DIABLO DApp contracts (paper §3, Table 2)."""
