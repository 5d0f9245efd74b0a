"""Economic layer: per-chain fee markets and attacker economics.

The benchmark's robustness story (§6.3/§6.5) is incomplete without the
defense every production chain actually relies on under hostile load:
fees. This package models the three fee dialects the registered chains
use — EIP-1559 base-fee dynamics, priority-fee auctions and flat
minimum fees — plus the :class:`~repro.econ.market.FeeMarket` runtime
that charges committed transactions and attributes spend to honest and
adversarial senders.

Everything here is opt-in: a workload without a ``fees:`` section never
constructs a market and the benign pipeline is byte-identical to a tree
without this package.
"""

from repro import lazy_package

__all__ = [
    "DIALECTS",
    "AuctionFeeModel",
    "Eip1559FeeModel",
    "FeeModel",
    "FeeMarket",
    "FeePolicy",
    "FeeSpec",
    "FlatFeeModel",
    "build_fee_model",
]

__getattr__, __dir__ = lazy_package(globals(), {
    "repro.econ.fees": (
        "AuctionFeeModel", "DIALECTS", "Eip1559FeeModel", "FeeModel",
        "FeePolicy", "FeeSpec", "FlatFeeModel", "build_fee_model",
    ),
    "repro.econ.market": ("FeeMarket",),
})
