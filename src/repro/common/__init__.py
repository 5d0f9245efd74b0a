"""Shared utilities: errors, units, deterministic RNG streams and ids."""

from repro.common.errors import (
    BudgetExceededError,
    ChainError,
    ConfigurationError,
    ContractError,
    DeploymentError,
    InvalidTransactionError,
    MempoolFullError,
    NetworkError,
    OutOfGasError,
    ReproError,
    SenderQuotaError,
    SimulationError,
    SpecError,
    StateLimitError,
    UnderpricedError,
    UnknownAccountError,
    VMError,
)
from repro.common.ids import short_hash
from repro.common.rng import RngFactory, derive_seed

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
