"""Tests for the connector, Secondary and Primary pipeline."""

from __future__ import annotations

import pytest

from repro.blockchains.base import ExperimentScale
from repro.blockchains.registry import build_network
from repro.common.errors import ConfigurationError, SpecError
from repro.core.interface import SimConnector
from repro.core.primary import Primary
from repro.core.runner import run_benchmark, run_trace
from repro.core.spec import (
    AccountSample,
    Behavior,
    ClientSpec,
    ContractSample,
    EndpointSample,
    InvokeSpec,
    LoadSchedule,
    LocationSample,
    TransferSpec,
    WorkloadGroup,
    WorkloadSpec,
    simple_spec,
)
from repro.sim.engine import Engine
from repro.sweep import CellOptions, SweepSpec, run_sweep
from repro.workloads.synthetic import constant_transfer_trace


@pytest.fixture
def connector():
    engine = Engine()
    net = build_network("quorum", "testnet", engine,
                        scale=ExperimentScale(0.1), seed=1)
    return SimConnector(net)


class TestConnector:
    def test_create_resource_accounts(self, connector):
        connector.create_resource(AccountSample(20))
        assert len(connector.network.accounts) == 20

    def test_create_resource_contract(self, connector):
        connector.create_resource(ContractSample("counter"))
        assert connector.network.vm.is_deployed("Counter")

    def test_unknown_dapp_rejected(self, connector):
        with pytest.raises(SpecError):
            connector.create_resource(ContractSample("pokemon"))

    def test_encode_transfer_signs_and_sequences(self, connector):
        connector.create_resource(AccountSample(5))
        tx = connector.encode(TransferSpec(AccountSample(5)), None, 0.0)
        assert tx.signature is not None
        assert tx.gas_limit == 21_000
        scheme = connector.network.params.signature_scheme
        sender = connector.network.accounts.get(tx.sender)
        assert scheme.verify(sender.public_key, tx.signing_payload(),
                             tx.signature)

    def test_encode_rotates_senders(self, connector):
        connector.create_resource(AccountSample(5))
        spec = TransferSpec(AccountSample(5))
        senders = {connector.encode(spec, None, 0.0).sender
                   for _ in range(10)}
        assert len(senders) == 5

    def test_encode_invoke_estimates_gas(self, connector):
        connector.create_resource(AccountSample(5))
        connector.create_resource(ContractSample("counter"))
        spec = InvokeSpec(AccountSample(5), ContractSample("counter"), "add")
        tx = connector.encode(spec, None, 0.0)
        assert tx.contract == "Counter"
        # ~29k actual gas * 1.5 margin, well below the 5M default
        assert 25_000 < tx.gas_limit < 100_000

    def test_gas_estimates_are_cached(self, connector):
        connector.create_resource(AccountSample(5))
        connector.create_resource(ContractSample("counter"))
        spec = InvokeSpec(AccountSample(5), ContractSample("counter"), "add")
        first = connector.encode(spec, None, 0.0)
        second = connector.encode(spec, None, 0.0)
        assert first.gas_limit == second.gas_limit
        assert len(connector._gas_estimates) == 1

    def test_create_client_validates_endpoints(self, connector):
        with pytest.raises(ConfigurationError):
            connector.create_client("c", "ohio", ["ghost-node"])

    def test_trigger_submits(self, connector):
        connector.create_resource(AccountSample(2))
        client = connector.create_client(
            "c", "ohio", [connector.network.endpoints[0].name])
        tx = connector.encode(TransferSpec(AccountSample(2)), None, 0.0)
        assert connector.trigger_batch((client,), (tx,)) == 1
        assert len(connector.network.mempool) == 1


class TestPrimary:
    def test_run_produces_result(self):
        spec = simple_spec(TransferSpec(AccountSample(20)),
                           LoadSchedule.constant(100, 10))
        primary = Primary("quorum", "testnet", scale=0.2, seed=1)
        result = primary.run(spec, workload_name="smoke", drain=60)
        assert result.workload_name == "smoke"
        assert result.submitted == pytest.approx(100 * 10 * 0.2, abs=5)
        assert result.commit_ratio > 0.95

    def test_secondaries_collocate_with_node_regions(self):
        spec = simple_spec(TransferSpec(AccountSample(10)),
                           LoadSchedule.constant(10, 5))
        primary = Primary("quorum", "devnet", scale=0.2)
        primary.run(spec, drain=30)
        regions = {s.region for s in primary.secondaries}
        node_regions = {ep.region for ep in primary.network.endpoints}
        assert regions == node_regions

    def test_location_sample_filters_secondaries(self, monkeypatch):
        spec = simple_spec(TransferSpec(AccountSample(10)),
                           LoadSchedule.constant(50, 5), location="ohio")
        primary = Primary("quorum", "devnet", scale=0.2)
        # the Secondaries' logs as the run left them, read before the
        # aggregation takes them
        active = []
        aggregate = Primary._aggregate

        def spied(self, *args, **kwargs):
            active.extend(s for s in self.secondaries if s.sent)
            return aggregate(self, *args, **kwargs)

        monkeypatch.setattr(Primary, "_aggregate", spied)
        primary.run(spec, drain=30)
        assert {s.region for s in active} == {"ohio"}

    def test_unmatchable_location_rejected(self):
        spec = simple_spec(TransferSpec(AccountSample(10)),
                           LoadSchedule.constant(10, 5), location="us-east-2")
        primary = Primary("quorum", "testnet", scale=0.2)
        with pytest.raises(ConfigurationError):
            primary.run(spec)

    def test_client_count_matches_group_number(self):
        spec = WorkloadSpec((WorkloadGroup(
            number=7,
            client=ClientSpec(
                LocationSample((".*",)), EndpointSample((".*",)),
                (Behavior(TransferSpec(AccountSample(10)),
                          LoadSchedule.constant(70, 5)),))),))
        primary = Primary("quorum", "testnet", scale=0.2)
        primary.run(spec, drain=30)
        assert sum(len(a.clients) for s in primary.secondaries
                   for a in s.assignments) == 7


class TestDispatch:
    """``Primary._dispatch`` resolves a client's endpoint view once per
    matching Secondary, on its first client, not once per client."""

    @staticmethod
    def group(number, view=(".*",)):
        return WorkloadGroup(number=number, client=ClientSpec(
            LocationSample((".*",)), EndpointSample(view),
            (Behavior(TransferSpec(AccountSample(10)),
                      LoadSchedule.constant(10, 5)),)))

    @staticmethod
    def dispatch(*groups):
        # quorum devnet: ten nodes, one per region, so ten Secondaries
        primary = Primary("quorum", "devnet", scale=0.2)
        spec = WorkloadSpec(groups)
        primary._build_secondaries(spec)
        primary._dispatch(spec)
        return primary

    @staticmethod
    def views(primary):
        return {client.name: (secondary.region, client.endpoints)
                for secondary in primary.secondaries
                for assignment in secondary.assignments
                for client in assignment.clients}

    def test_view_matched_once_per_secondary(self, monkeypatch):
        calls = []
        matches = EndpointSample.matches

        def counted(sample, name):
            calls.append(name)
            return matches(sample, name)

        monkeypatch.setattr(EndpointSample, "matches", counted)
        primary = self.dispatch(self.group(200))
        endpoints = primary.network.endpoints
        assert len(primary.secondaries) == len(endpoints) == 10
        # 10 Secondaries x 10 endpoints, where a lookup per client
        # would make 200 x 10
        assert len(calls) == 100
        views = self.views(primary)
        assert len(views) == 200
        region_of = {ep.name: ep.region for ep in endpoints}
        for region, view in views.values():
            assert [region_of[name] for name in view] == [region]

    def test_view_falls_back_to_every_named_endpoint(self):
        # nodes 0-2 sit in three regions; a client elsewhere sees all three
        primary = self.dispatch(self.group(20, ("quorum-node-[0-2]",)))
        named = ("quorum-node-0", "quorum-node-1", "quorum-node-2")
        region_of = {ep.name: ep.region for ep in primary.network.endpoints}
        for region, view in self.views(primary).values():
            local = tuple(n for n in named if region_of[n] == region)
            assert view == (local or named)

    def test_view_naming_no_endpoint_rejected(self):
        with pytest.raises(ConfigurationError,
                           match="no endpoint matches view sample"):
            self.dispatch(self.group(3, ("ghost-node",)))

    def test_empty_group_resolves_no_view(self):
        group = self.group(1, ("ghost-node",))
        object.__setattr__(group, "number", 0)  # past the spec's check
        primary = self.dispatch(group)
        assert self.views(primary) == {}


class TestRunner:
    def test_run_trace(self):
        result = run_trace("quorum", "testnet", constant_transfer_trace(100, 10),
                           accounts=20, scale=0.2, drain=60)
        assert result.chain == "quorum"
        assert result.average_throughput > 50

    def test_run_benchmark_accepts_yaml(self):
        yaml_text = """
workloads:
  - number: 1
    client:
      location: { sample: !location [ ".*" ] }
      view: { sample: !endpoint [ ".*" ] }
      behavior:
        - interaction: !transfer
            from: { sample: !account { number: 10 } }
          load: { 0: 50, 5: 0 }
"""
        result = run_benchmark("quorum", "testnet", yaml_text, scale=0.2,
                               drain=30)
        assert result.submitted > 0

    def test_run_matrix(self):
        # a chains x one-trace matrix is a one-row sweep
        sweep = run_sweep(SweepSpec(
            chains=("quorum", "solana"), configurations=("testnet",),
            workloads=(constant_transfer_trace(50, 10),), scales=(0.2,),
            options=CellOptions(accounts=20, drain=60)))
        results = {o.cell.chain: o.result for o in sweep.outcomes}
        assert set(results) == {"quorum", "solana"}
        assert all(r.submitted > 0 for r in results.values())

    def test_deterministic_given_seed(self):
        kwargs = dict(accounts=20, scale=0.2, seed=9, drain=60)
        a = run_trace("quorum", "testnet", constant_transfer_trace(100, 10),
                      **kwargs)
        b = run_trace("quorum", "testnet", constant_transfer_trace(100, 10),
                      **kwargs)
        assert a.average_throughput == b.average_throughput
        assert a.average_latency == b.average_latency
