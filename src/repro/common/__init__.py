"""Shared utilities: errors, units, deterministic RNG streams and ids."""

from repro import lazy_package

__all__ = [
    "BudgetExceededError",
    "ChainError",
    "ConfigurationError",
    "ContractError",
    "DeploymentError",
    "InvalidTransactionError",
    "MempoolFullError",
    "NetworkError",
    "OutOfGasError",
    "ReproError",
    "RngFactory",
    "SenderQuotaError",
    "SimulationError",
    "SpecError",
    "StateLimitError",
    "UnderpricedError",
    "UnknownAccountError",
    "VMError",
    "derive_seed",
    "short_hash",
]

__getattr__, __dir__ = lazy_package(globals(), {
    "repro.common.errors": (
        "BudgetExceededError", "ChainError", "ConfigurationError",
        "ContractError", "DeploymentError", "InvalidTransactionError",
        "MempoolFullError", "NetworkError", "OutOfGasError", "ReproError",
        "SenderQuotaError", "SimulationError", "SpecError", "StateLimitError",
        "UnderpricedError", "UnknownAccountError", "VMError",
    ),
    "repro.common.ids": ("short_hash",),
    "repro.common.rng": ("RngFactory", "derive_seed"),
})
