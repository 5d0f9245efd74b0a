"""Per-chain fee models: the three dialects the registered chains speak.

* ``eip1559`` — Ethereum, Quorum and Diem: a protocol-controlled *base
  fee* per gas that rises when blocks run above target and decays when
  they run below, plus a priority tip. A transaction carries a fee cap
  (``fee_per_gas``); its effective price is ``min(cap, base + tip)`` and
  anything capped below the current base fee is underpriced.
* ``auction`` — Solana: a flat minimum signature fee plus a first-price
  priority-fee auction. The floor never moves; bidding happens entirely
  in the tip.
* ``flat`` — Algorand and Avalanche (as deployed by the paper's runs): a
  fixed minimum fee and no prioritization, so an attacker cannot outbid
  honest traffic — flooding at the minimum fee is the only lever.

A :class:`FeePolicy` is the chain's static declaration (attached to
``ChainParams``); a :class:`FeeSpec` is the workload's ``fees:`` section
layering overrides on top; :func:`build_fee_model` combines them with the
chain's (scaled) per-block gas budget into a live model. All arithmetic
is integer so fee trajectories are byte-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Optional, Tuple

from repro.common.errors import ConfigurationError, SpecError
from repro.common.reader import read
from repro.vm.gas import eip1559_base_fee_update

DIALECTS = ("eip1559", "auction", "flat")


@dataclass(frozen=True)
class FeePolicy:
    """A chain's static fee-market declaration.

    ``base_fee`` is the launch base fee (eip1559) and is unused by the
    other dialects; ``min_fee`` is the hard per-gas floor every dialect
    respects. ``elasticity`` and ``max_change_denominator`` are the
    EIP-1559 constants (target = cap / elasticity, max step = base /
    denominator). ``headroom`` is the client-side fee-cap multiplier a
    wallet applies over the current base fee, and ``default_tip`` the
    tip it attaches.
    """

    dialect: str = "eip1559"
    base_fee: int = 10
    min_fee: int = 1
    elasticity: int = 2
    max_change_denominator: int = 8
    default_tip: int = 1
    headroom: int = 2

    def __post_init__(self) -> None:
        if self.dialect not in DIALECTS:
            raise ConfigurationError(
                f"unknown fee dialect {self.dialect!r};"
                f" expected one of {DIALECTS}")
        for name in ("base_fee", "min_fee", "elasticity",
                     "max_change_denominator", "default_tip", "headroom"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigurationError(
                    f"fee policy field {name} must be an integer,"
                    f" got {value!r}")
        if self.min_fee < 1:
            raise ConfigurationError("min_fee must be >= 1")
        if self.dialect == "eip1559" and self.base_fee < self.min_fee:
            # base_fee only exists in the eip1559 dialect; the others
            # price purely off min_fee and may leave the default alone
            raise ConfigurationError(
                f"base_fee {self.base_fee} below min_fee {self.min_fee}")
        if self.elasticity < 1:
            raise ConfigurationError("elasticity must be >= 1")
        if self.max_change_denominator < 1:
            raise ConfigurationError("max_change_denominator must be >= 1")
        if self.default_tip < 0:
            raise ConfigurationError("default_tip must be >= 0")
        if self.headroom < 1:
            raise ConfigurationError("headroom must be >= 1")


#: FeeSpec keys that override the same-named FeePolicy field when set
_POLICY_OVERRIDES = ("dialect", "base_fee", "min_fee", "elasticity",
                     "max_change_denominator", "default_tip", "headroom")


@dataclass(frozen=True)
class FeeSpec:
    """The workload's ``fees:`` section.

    Turning the section on activates the chain's declared
    :class:`FeePolicy`; every optional field here overrides the
    same-named policy field. The three client-side knobs control the
    client retries the section brings
    (:class:`~repro.blockchains.retry.ClientRetries`; without ``fees:``
    a client submits once): each resubmission by an honest client
    multiplies the transaction's price by ``fee_bump``, never exceeding
    ``fee_bump_cap`` times the original price, for up to
    ``retry_attempts`` total submission attempts (default 3).
    """

    enabled: bool = True
    dialect: Optional[str] = None
    base_fee: Optional[int] = None
    min_fee: Optional[int] = None
    elasticity: Optional[int] = None
    max_change_denominator: Optional[int] = None
    default_tip: Optional[int] = None
    headroom: Optional[int] = None
    fee_bump: float = 1.25
    fee_bump_cap: float = 10.0
    retry_attempts: Optional[int] = None

    def __post_init__(self) -> None:
        if self.fee_bump < 1.0:
            raise SpecError(f"fees.fee_bump must be >= 1.0, got {self.fee_bump}")
        if self.fee_bump_cap < 1.0:
            raise SpecError(
                f"fees.fee_bump_cap must be >= 1.0, got {self.fee_bump_cap}")
        if self.retry_attempts is not None and self.retry_attempts < 1:
            raise SpecError("fees.retry_attempts must be >= 1")
        if self.dialect is not None and self.dialect not in DIALECTS:
            raise SpecError(
                f"unknown fee dialect {self.dialect!r};"
                f" expected one of {DIALECTS}")

    @classmethod
    def from_dict(cls, raw: Any, path: str = "fees") -> "FeeSpec":
        return read(cls, raw, path)

    def applied_to(self, policy: Optional[FeePolicy]) -> FeePolicy:
        """The chain policy with this spec's overrides layered on top."""
        base = policy if policy is not None else FeePolicy()
        overrides = {name: getattr(self, name) for name in _POLICY_OVERRIDES
                     if getattr(self, name) is not None}
        try:
            return replace(base, **overrides)
        except ConfigurationError as exc:
            raise SpecError(f"invalid fees section: {exc}") from exc


def _bid(amount: int, multiplier: float) -> int:
    """An attack bid: *multiplier* times *amount*, rounded up, >= 1."""
    return max(1, int(math.ceil(amount * multiplier)))


class FeeModel:
    """Common protocol for the three dialects.

    ``effective_price`` is duck-typed over anything carrying
    ``fee_per_gas``/``tip`` integer attributes (the simulator's
    :class:`~repro.chain.transaction.Transaction` does).
    """

    dialect = "?"

    def __init__(self, policy: FeePolicy, gas_target: int) -> None:
        self.policy = policy
        self.gas_target = max(1, gas_target)

    def floor(self) -> int:
        """Minimum effective per-gas price admitted right now."""
        raise NotImplementedError

    def effective_price(self, tx: Any) -> int:
        """Per-gas price *tx* would actually pay at the current floor."""
        raise NotImplementedError

    def suggest(self) -> Tuple[int, int]:
        """(fee_per_gas, tip) an honest wallet would attach right now."""
        raise NotImplementedError

    def attack_bid(self, multiplier: float) -> Tuple[int, int]:
        """(fee_per_gas, tip) outbidding the honest suggestion."""
        raise NotImplementedError

    def fee_paid(self, tx: Any, gas_used: int) -> int:
        """Fee units charged for *tx* consuming *gas_used*."""
        return self.effective_price(tx) * gas_used

    def on_block(self, gas_used: int) -> None:
        """Observe a sealed block's gas usage (moves eip1559 fees)."""


class Eip1559FeeModel(FeeModel):
    """London-style dynamic base fee plus priority tip."""

    dialect = "eip1559"

    def __init__(self, policy: FeePolicy, gas_target: int) -> None:
        super().__init__(policy, gas_target)
        self.base_fee = policy.base_fee

    def floor(self) -> int:
        return self.base_fee

    def effective_price(self, tx: Any) -> int:
        return min(tx.fee_per_gas, self.base_fee + tx.tip)

    def suggest(self) -> Tuple[int, int]:
        return (self.base_fee * self.policy.headroom, self.policy.default_tip)

    def attack_bid(self, multiplier: float) -> Tuple[int, int]:
        fee, tip = self.suggest()
        return (_bid(fee, multiplier), _bid(tip + 1, multiplier))

    def on_block(self, gas_used: int) -> None:
        self.base_fee = eip1559_base_fee_update(
            self.base_fee, gas_used, self.gas_target,
            denominator=self.policy.max_change_denominator,
            floor=self.policy.min_fee)


class AuctionFeeModel(FeeModel):
    """Flat signature fee plus a first-price priority-fee auction."""

    dialect = "auction"

    def floor(self) -> int:
        return self.policy.min_fee

    def effective_price(self, tx: Any) -> int:
        return self.policy.min_fee + tx.tip

    def suggest(self) -> Tuple[int, int]:
        return (self.policy.min_fee, self.policy.default_tip)

    def attack_bid(self, multiplier: float) -> Tuple[int, int]:
        fee, tip = self.suggest()
        return (fee, _bid(tip + 1, multiplier))


class FlatFeeModel(FeeModel):
    """Fixed minimum fee, no prioritization: bids cannot jump the queue."""

    dialect = "flat"

    def floor(self) -> int:
        return self.policy.min_fee

    def effective_price(self, tx: Any) -> int:
        return self.policy.min_fee

    def suggest(self) -> Tuple[int, int]:
        return (self.policy.min_fee, 0)

    def attack_bid(self, multiplier: float) -> Tuple[int, int]:
        # paying more buys nothing on a flat-fee chain; the only attack
        # is flooding at the minimum fee
        return (self.policy.min_fee, 0)


_MODELS = {
    "eip1559": Eip1559FeeModel,
    "auction": AuctionFeeModel,
    "flat": FlatFeeModel,
}


def build_fee_model(policy: FeePolicy, gas_target: int) -> FeeModel:
    """Instantiate the model *policy* names, targeting *gas_target*."""
    return _MODELS[policy.dialect](policy, gas_target)
