"""The six simulated blockchains and their shared runtime."""

from repro import lazy_package

__all__ = [
    "BlockchainNetwork",
    "ChainParams",
    "ExperimentScale",
    "default_scale",
]

__getattr__, __dir__ = lazy_package(globals(), {
    "repro.blockchains.base": (
        "BlockchainNetwork", "ChainParams", "ExperimentScale",
        "default_scale",
    ),
})
