"""Lifecycle-tracer tests: span invariants, determinism, exporters."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.blockchains.registry import CHAIN_NAMES
from repro.core.primary import Primary
from repro.core.spec import (
    AccountSample,
    LoadSchedule,
    TransferSpec,
    load_spec,
    simple_spec,
)
from repro.obs import (
    ObservabilityOptions,
    Span,
    chrome_trace,
    spans_to_jsonl,
)
from repro.obs.trace import TX_PHASES

SPECS = Path(__file__).resolve().parents[2] / "examples" / "specs"
#: (example spec, chain, seed): each spec on a chain where it bites
TRACED_SPECS = [
    ("crash-and-recover", "quorum", 0), ("partition", "quorum", 0),
    ("byzantine", "quorum", 0), ("overload", "solana", 0),
    ("dos", "ethereum", 3), ("population", "ethereum", 0),
    ("transfer", "ethereum", 0), ("dapp", "quorum", 0)]


def short_spec(duration=10.0, rate=100.0):
    return simple_spec(TransferSpec(AccountSample(200)),
                       LoadSchedule.constant(rate, duration))


def traced_run(chain, seed=3, observe=ObservabilityOptions(
        trace=True, profile=False, sample_period=1.0)):
    primary = Primary(chain, "testnet", scale=0.1, seed=seed,
                      observe=observe)
    result = primary.run(short_spec(), drain=120.0)
    return primary, result


def tx_spans(tracer):
    return [s for s in tracer.spans if s.scope == "tx"]


def spans_for(tracer, uid):
    """The phase spans of one transaction, in lifecycle order."""
    return sorted((s for s in tx_spans(tracer) if s.key == uid),
                  key=lambda s: TX_PHASES.index(s.phase))


@pytest.fixture(scope="module")
def ethereum_traced():
    return traced_run("ethereum")


class TestSpanInvariants:
    @pytest.mark.parametrize("chain", CHAIN_NAMES)
    def test_committed_tx_spans_contiguous_and_sum_to_latency(self, chain):
        primary, result = traced_run(chain)
        tracer = primary.tracer
        committed = [r for r in result.records if r.committed]
        assert committed, f"{chain}: nothing committed in the traced run"
        checked = 0
        for record in committed:
            spans = spans_for(tracer, record.uid)
            if not spans:
                continue  # committed during drain after an untraced requeue
            checked += 1
            assert [s.phase for s in spans] == list(TX_PHASES)
            for span in spans:
                assert span.duration >= 0.0
            for left, right in zip(spans, spans[1:]):
                assert left.end == pytest.approx(right.start)
            total = sum(s.duration for s in spans)
            assert total == pytest.approx(
                record.committed_at - record.submitted_at, abs=1e-6)
        assert checked > 0

    def test_aborted_tx_has_no_spans(self, ethereum_traced):
        primary, result = ethereum_traced
        tracer = primary.tracer
        spanned = {s.key for s in tx_spans(tracer)}
        for record in result.records:
            if record.aborted:
                assert record.uid not in spanned

    def test_traced_count_matches_receipt_spans(self, ethereum_traced):
        primary, _ = ethereum_traced
        tracer = primary.tracer
        receipts = [s for s in tx_spans(tracer) if s.phase == "receipt"]
        assert tracer.traced_transactions() == len(receipts)

    def test_phase_breakdown_covers_all_phases(self, ethereum_traced):
        primary, _ = ethereum_traced
        breakdown = primary.tracer.phase_breakdown()
        assert set(breakdown) == set(TX_PHASES)
        for stats in breakdown.values():
            assert stats["count"] > 0
            assert stats["p50"] <= stats["p95"] <= stats["p99"]


def record_shape(record):
    """Everything about a record except the process-global uid counter."""
    return (record.kind, record.client, record.submitted_at,
            record.committed_at, record.aborted, record.abort_reason,
            record.retries)


class TestDeterminism:
    def test_same_seed_same_result_without_observability(self):
        first = Primary("quorum", "testnet", scale=0.1, seed=7)
        second = Primary("quorum", "testnet", scale=0.1, seed=7)
        result_a = first.run(short_spec(), drain=120.0)
        result_b = second.run(short_spec(), drain=120.0)
        assert ([record_shape(r) for r in result_a.records]
                == [record_shape(r) for r in result_b.records])
        assert result_a.summary() == result_b.summary()

    def test_observability_does_not_change_the_outcome(self):
        plain = Primary("quorum", "testnet", scale=0.1, seed=7)
        result_plain = plain.run(short_spec(), drain=120.0)
        observed, result_observed = traced_run(
            "quorum", seed=7,
            observe=ObservabilityOptions(trace=True, profile=True,
                                         sample_period=1.0))
        assert ([record_shape(r) for r in result_plain.records]
                == [record_shape(r) for r in result_observed.records])
        summary_plain = result_plain.summary()
        summary_observed = result_observed.summary()
        summary_observed.pop("timeseries", None)
        assert summary_plain == summary_observed

    @pytest.mark.parametrize("name, chain, seed", TRACED_SPECS)
    def test_a_traced_example_spec_gives_the_same_bytes(self, name, chain,
                                                        seed):
        """The run that gets traced is the run that gets benchmarked."""
        spec = load_spec((SPECS / f"{name}.yaml").read_text())
        plain = Primary(chain, "testnet", scale=0.05, seed=seed).run(spec)
        traced = Primary(chain, "testnet", scale=0.05, seed=seed,
                         observe=ObservabilityOptions(
                             trace=True, profile=False, sample_period=0))
        result = traced.run(spec)
        assert traced.tracer.spans
        assert result.to_json() == plain.to_json()

    def test_every_example_spec_is_traced(self):
        assert ({name for name, _, _ in TRACED_SPECS}
                == {path.stem for path in SPECS.glob("*.yaml")})

    def test_disabled_run_has_no_tracer_and_no_timeseries(self):
        primary = Primary("quorum", "testnet", scale=0.1, seed=7)
        result = primary.run(short_spec(), drain=120.0)
        assert primary.tracer is None
        assert primary.network.tracer is None
        assert result.timeseries == []
        assert "timeseries" not in result.summary()


class TestExporters:
    def test_jsonl_round_trip(self, ethereum_traced):
        primary, _ = ethereum_traced
        tracer = primary.tracer
        text = spans_to_jsonl(tracer)
        rows = [json.loads(line) for line in text.splitlines()]
        spans = [Span.from_dict({k: v for k, v in row.items() if k != "type"})
                 for row in rows if row["type"] == "span"]
        assert spans == tracer.spans
        assert (len([row for row in rows if row["type"] == "event"])
                == len(tracer.events))

    def test_span_dict_round_trip(self):
        span = Span(scope="tx", key=42, phase="mempool",
                    start=1.25, end=3.5, meta=(("block", 7),))
        assert Span.from_dict(span.to_dict()) == span

    def test_chrome_trace_is_valid_and_complete(self, ethereum_traced):
        primary, _ = ethereum_traced
        payload = json.loads(json.dumps(chrome_trace(primary.tracer)))
        events = payload["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        assert complete
        for event in complete:
            assert event["ts"] >= 0
            assert event["dur"] >= 0
            assert isinstance(event["pid"], int)
        assert (len([e for e in complete if e["pid"] == 1])
                == len(tx_spans(primary.tracer)))

    def test_timeseries_lands_in_result(self, ethereum_traced):
        _, result = ethereum_traced
        assert result.timeseries
        first = result.timeseries[0]
        assert "t" in first
        assert any(key.startswith("mempool.") for key in first)
        assert "timeseries" in result.summary()
        round_tripped = type(result).from_json(result.to_json())
        assert round_tripped.timeseries == result.timeseries
