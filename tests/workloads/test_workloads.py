"""Tests for the workload suite (§3, Table 2)."""

from __future__ import annotations

import pytest

from repro.core.spec import InvokeSpec, TransferSpec
from repro.workloads import (
    VISA_AVERAGE_TPS,
    constant_transfer_trace,
    dapp_suite,
    deployment_challenge_trace,
    derived_average_tps,
    dota_trace,
    expected_peak_tps,
    fifa_trace,
    gafam_trace,
    stock_trace,
    uber_trace,
    youtube_trace,
)
from repro.workloads.traces import burst_then_decay, schedule_from_rates


class TestNasdaq:
    def test_per_stock_opening_peaks(self):
        # §3: 800 / 1300 / 3000 / 4000 / 10000 TPS opening demand
        assert stock_trace("google").peak_tps == pytest.approx(800, rel=0.01)
        assert stock_trace("amazon").peak_tps == pytest.approx(1300, rel=0.01)
        assert stock_trace("facebook").peak_tps == pytest.approx(3000, rel=0.01)
        assert stock_trace("microsoft").peak_tps == pytest.approx(4000, rel=0.01)
        assert stock_trace("apple").peak_tps == pytest.approx(10000, rel=0.01)

    def test_bursts_decay_to_the_floor(self):
        trace = stock_trace("apple")
        assert trace.schedule.rate_at(170) < 100  # "dropping to 10-60 TPS"

    def test_gafam_runs_three_minutes(self):
        assert gafam_trace().duration == pytest.approx(180, abs=1)

    def test_gafam_peak_near_19800(self):
        # §3: "experiences a peak of 19,800 TPS"
        assert gafam_trace().peak_tps == pytest.approx(
            expected_peak_tps(), rel=0.02)
        assert expected_peak_tps() == pytest.approx(19_100, rel=0.05)

    def test_each_stock_buys_its_own_function(self):
        assert stock_trace("google").function == "buyGoogle"
        assert stock_trace("apple").function == "buyApple"

    def test_exchange_dapp_is_used(self):
        assert gafam_trace().dapp == "exchange"


class TestDota:
    def test_duration_276_seconds(self):
        assert dota_trace().duration == pytest.approx(276)

    def test_rate_is_about_13k(self):
        trace = dota_trace()
        assert trace.average_tps == pytest.approx(13_300, rel=0.01)

    def test_paper_example_rates(self):
        # §4: 3 clients x 4432 TPS then 4438 TPS
        trace = dota_trace()
        assert trace.schedule.rate_at(10) == pytest.approx(3 * 4432)
        assert trace.schedule.rate_at(60) == pytest.approx(3 * 4438)

    def test_three_client_split(self):
        spec = dota_trace().spec(accounts=2000, clients=3)
        assert spec.workloads[0].number == 3
        per_client = spec.workloads[0].client.behaviors[0].load
        assert per_client.rate_at(10) == pytest.approx(4432)


class TestFifa:
    def test_duration_176_seconds(self):
        assert fifa_trace().duration == pytest.approx(176)

    def test_rate_range(self):
        # §3: "a rate varying from 1416 to 5305 requests per second"
        trace = fifa_trace()
        rates = [trace.schedule.rate_at(t) for t in range(176)]
        assert min(rates) == pytest.approx(1416, rel=0.02)
        assert max(rates) == pytest.approx(5305, rel=0.02)

    def test_average_about_3500(self):
        assert fifa_trace().average_tps == pytest.approx(3400, rel=0.05)

    def test_counter_dapp(self):
        assert fifa_trace().dapp == "counter"
        assert fifa_trace().function == "add"


class TestUber:

    def test_rate_band(self):
        # §6.4: "810 TPS to 900 TPS ... during 120 seconds"
        trace = uber_trace()
        rates = [trace.schedule.rate_at(t) for t in range(120)]
        assert min(rates) >= 805
        assert max(rates) <= 905
        assert trace.duration == pytest.approx(120)

    def test_invokes_check_distance(self):
        assert uber_trace().function == "checkDistance"


class TestYoutube:
    def test_paper_derivation(self):
        # §3: "467 x 83 = 38,761 TPS"
        assert derived_average_tps() == pytest.approx(38_740, rel=0.01)

    def test_is_the_most_demanding(self):
        suite = dapp_suite()
        assert suite["video"].average_tps == max(
            trace.average_tps for trace in suite.values())

    def test_upload_function(self):
        assert youtube_trace().function == "upload"


class TestSynthetic:
    def test_deployment_challenge_is_visa_scale(self):
        # §6.2: 1000 TPS is "the same order of magnitude as ... Visa"
        trace = deployment_challenge_trace()
        assert trace.average_tps == pytest.approx(1000)
        assert trace.duration == 120
        assert VISA_AVERAGE_TPS == 1736

    def test_native_transfers_have_no_dapp(self):
        spec = constant_transfer_trace(10, 5).spec(accounts=10)
        interaction = spec.workloads[0].client.behaviors[0].interaction
        assert isinstance(interaction, TransferSpec)


class TestSuite:
    def test_five_dapps(self):
        suite = dapp_suite()
        assert sorted(suite) == ["exchange", "gaming", "mobility",
                                 "video", "web"]

    def test_summaries_are_serializable(self):
        import json
        for trace in dapp_suite().values():
            json.dumps(trace.summary())

    def test_specs_reference_their_dapps(self):
        for key, trace in dapp_suite().items():
            spec = trace.spec(accounts=100)
            interaction = spec.workloads[0].client.behaviors[0].interaction
            assert isinstance(interaction, InvokeSpec)


class TestHelpers:
    def test_schedule_from_rates_compresses_runs(self):
        schedule = schedule_from_rates([5, 5, 5, 2, 2])
        assert schedule.points == ((0.0, 5.0), (3.0, 2.0), (5.0, 0.0))

    def test_burst_then_decay_shape(self):
        schedule = burst_then_decay(1000, 10, 60, 5)
        assert schedule.rate_at(0) == pytest.approx(1000, rel=0.01)
        assert schedule.rate_at(59) < 20
