"""Unit tests for the fee dialects, policy/spec layering and the market."""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigurationError, SpecError
from repro.chain.transaction import transfer
from repro.econ.fees import (
    AuctionFeeModel,
    Eip1559FeeModel,
    FeePolicy,
    FeeSpec,
    FlatFeeModel,
    build_fee_model,
)
from repro.econ.market import FeeMarket
from repro.obs.metrics import MetricsRegistry
from repro.vm.gas import eip1559_base_fee_update


def tx_priced(fee_per_gas: int, tip: int = 0):
    return transfer("alice", "bob", sequence=0,
                    fee_per_gas=fee_per_gas, tip=tip, gas_limit=21_000)


class TestBaseFeeUpdate:
    def test_above_target_raises(self):
        assert eip1559_base_fee_update(100, 2_000, 1_000) > 100

    def test_below_target_decays(self):
        assert eip1559_base_fee_update(100, 500, 1_000) < 100

    def test_at_target_unchanged(self):
        assert eip1559_base_fee_update(100, 1_000, 1_000) == 100

    def test_minimum_step_is_one(self):
        # base fee 2, denominator 8: the raw delta rounds to zero, but the
        # controller must still move
        assert eip1559_base_fee_update(2, 2_000, 1_000) == 3
        assert eip1559_base_fee_update(2, 0, 1_000) == 1

    def test_floor_clamp(self):
        assert eip1559_base_fee_update(5, 0, 1_000, floor=5) == 5
        assert eip1559_base_fee_update(1, 0, 1_000) == 1

    def test_exact_eip_delta(self):
        # delta = base * (used - target) // (target * denom)
        # = 800 * (1_500 - 1_000) // (1_000 * 8) = 50
        assert eip1559_base_fee_update(800, 1_500, 1_000) == 850


class TestFeePolicy:
    def test_unknown_dialect(self):
        with pytest.raises(ConfigurationError, match="dialect"):
            FeePolicy(dialect="bananas")

    def test_eip1559_base_fee_below_min_fee_rejected(self):
        with pytest.raises(ConfigurationError, match="below min_fee"):
            FeePolicy(dialect="eip1559", min_fee=100)

    def test_flat_dialect_ignores_base_fee(self):
        # flat/auction chains price purely off min_fee; the (unused)
        # base_fee default must not invalidate them
        policy = FeePolicy(dialect="flat", min_fee=25)
        assert policy.min_fee == 25

    def test_non_integer_field_rejected(self):
        with pytest.raises(ConfigurationError, match="integer"):
            FeePolicy(base_fee=1.5)
        with pytest.raises(ConfigurationError, match="integer"):
            FeePolicy(min_fee=True)


class TestFeeSpec:
    def test_unknown_key_rejected(self):
        with pytest.raises(SpecError, match="unknown key"):
            FeeSpec.from_dict({"base_fe": 5})

    def test_overrides_layer_onto_chain_policy(self):
        chain = FeePolicy(dialect="auction", min_fee=5)
        spec = FeeSpec(min_fee=9, default_tip=3)
        policy = spec.applied_to(chain)
        assert policy.dialect == "auction"
        assert policy.min_fee == 9
        assert policy.default_tip == 3

    def test_invalid_override_surfaces_as_spec_error(self):
        with pytest.raises(SpecError, match="invalid fees section"):
            FeeSpec(min_fee=0).applied_to(FeePolicy())

    def test_fee_bump_validation(self):
        with pytest.raises(SpecError, match="fee_bump"):
            FeeSpec(fee_bump=0.5)
        with pytest.raises(SpecError, match="fee_bump_cap"):
            FeeSpec(fee_bump_cap=0.9)
        with pytest.raises(SpecError, match="retry_attempts"):
            FeeSpec(retry_attempts=0)


class TestEip1559Model:
    def make(self, **kwargs) -> Eip1559FeeModel:
        policy = FeePolicy(dialect="eip1559", **kwargs)
        return build_fee_model(policy, gas_target=1_000)

    def test_effective_price_is_capped(self):
        model = self.make(base_fee=10)
        assert model.effective_price(tx_priced(8, tip=5)) == 8
        assert model.effective_price(tx_priced(100, tip=5)) == 15

    def test_suggestion_has_headroom(self):
        model = self.make(base_fee=10, headroom=2, default_tip=1)
        assert model.suggest() == (20, 1)

    def test_attack_bid_outbids_suggestion(self):
        model = self.make(base_fee=10)
        honest_fee, honest_tip = model.suggest()
        fee, tip = model.attack_bid(2.0)
        assert fee > honest_fee
        assert tip > honest_tip

    def test_full_blocks_raise_the_floor(self):
        model = self.make(base_fee=100)
        for _ in range(5):
            model.on_block(2_000)
        assert model.floor() > 100

    def test_empty_blocks_decay_to_min_fee(self):
        model = self.make(base_fee=10, min_fee=2)
        for _ in range(100):
            model.on_block(0)
        assert model.floor() == 2


class TestOtherDialects:
    def test_auction_floor_never_moves(self):
        model = build_fee_model(
            FeePolicy(dialect="auction", min_fee=5), gas_target=1_000)
        assert isinstance(model, AuctionFeeModel)
        for _ in range(10):
            model.on_block(10_000_000)
        assert model.floor() == 5
        assert model.effective_price(tx_priced(5, tip=7)) == 12

    def test_flat_ignores_bids(self):
        model = build_fee_model(
            FeePolicy(dialect="flat", min_fee=25), gas_target=1_000)
        assert isinstance(model, FlatFeeModel)
        assert model.effective_price(tx_priced(1_000, tip=999)) == 25
        # bidding buys nothing; the attack bid is the minimum fee itself
        assert model.attack_bid(10.0) == (25, 0)


class TestFeeMarket:
    def make(self) -> FeeMarket:
        model = build_fee_model(FeePolicy(base_fee=10), gas_target=1_000)
        return FeeMarket(model, MetricsRegistry().namespace("fees"))

    def test_charge_attributes_spend_by_label(self):
        market = self.make()
        market.track(["mallory"], "attacker")
        honest = tx_priced(100, tip=2)
        evil = transfer("mallory", "bob", sequence=0,
                        fee_per_gas=100, tip=2, gas_limit=21_000)
        market.charge(honest, gas_used=1_000)
        market.charge(evil, gas_used=1_000)
        assert market.spend("honest") == 12_000
        assert market.spend("attacker") == 12_000
        assert market.spend("nobody") == 0

    def test_economics_block_shape(self):
        market = self.make()
        market.charge(tx_priced(100, tip=2), gas_used=500)
        econ = market.economics()
        assert econ["dialect"] == "eip1559"
        assert econ["fees_collected"] == 6_000
        assert econ["txs_charged"] == 1
        assert econ["spend"] == {"honest": 6_000}
        assert econ["price_p50"] == 12

    def test_stats_are_flat_numbers(self):
        market = self.make()
        market.charge(tx_priced(100), gas_used=100)
        for value in market.stats().values():
            assert isinstance(value, (int, float))
