"""End-to-end tests for the resource-exhaustion (crash-under-load) model.

The unit under test is the §6.3 mechanism: sustained saturation exhausts
node memory, and each chain's configured response fires — Solana-model
validators OOM-crash, Diem-model consensus stalls, survivor chains shed
load and keep committing. Tests run against a tiny-RAM instance type so
exhaustion happens within a few simulated seconds.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.blockchains.base import BlockchainNetwork, ExperimentScale
from repro.blockchains.overload import OverloadPolicy
from repro.blockchains.retry import RetryPolicy
from repro.blockchains.registry import chain_params
from repro.chain.transaction import transfer
from repro.common.errors import ConfigurationError
from repro.core.runner import run_benchmark
from repro.core.spec import (
    AccountSample,
    LoadSchedule,
    TransferSpec,
    simple_spec,
)
from repro.sim.deployment import DeploymentConfig, TESTNET
from repro.sim.engine import Engine
from repro.sim.faults import FaultInjector
from repro.sim.machine import InstanceType

#: 64 MiB of RAM: tiny enough that a few hundred transactions of charged
#: backlog exhaust it within seconds of simulated time
TINY = DeploymentConfig("testnet", 4,
                        InstanceType("tiny", vcpus=4, memory=64 * 1024**2),
                        ("ohio",))


def make_net(base="quorum", seed=1, deployment=TINY, retry_policy=None,
             **overload_kwargs):
    params = replace(chain_params(base, deployment), retry_policy=retry_policy,
                     overload=OverloadPolicy(**overload_kwargs))
    engine = Engine()
    net = BlockchainNetwork(params, deployment, engine,
                            scale=ExperimentScale(1.0), seed=seed)
    net.create_accounts(200)
    return engine, net


def flood(net, count):
    accts = net.accounts.addresses()
    for i in range(count):
        net.submit_batch((transfer(accts[i % 100], accts[(i + 1) % 100]),))


class TestPolicyValidation:
    def test_defaults_are_valid(self):
        OverloadPolicy()

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigurationError):
            OverloadPolicy(response="explode")
        with pytest.raises(ConfigurationError):
            OverloadPolicy(high_water=0.5, low_water=0.9)
        with pytest.raises(ConfigurationError):
            OverloadPolicy(pool_tx_bytes=-1)
        with pytest.raises(ConfigurationError):
            OverloadPolicy(oom_jitter=0.5)
        with pytest.raises(ConfigurationError):
            OverloadPolicy(shed_pool_blocks=0.0)


class TestMemoryAccounting:
    def test_no_response_means_no_accounting(self):
        engine, net = make_net(response="none")
        assert net.overload is None
        flood(net, 500)
        engine.run(until=10.0)
        assert net.metrics.value("chain.memory_pressure") == 0.0
        assert all(machine.memory.total == 0 for machine in net.machines)
        assert net.stats().keys().isdisjoint(
            {"memory_pressure_peak", "overload_events"})

    def test_pressure_rises_under_flood(self):
        engine, net = make_net(response="commit_stall",
                               consensus_tx_bytes=64 * 1024)
        flood(net, 200)
        engine.run(until=5.0)
        assert net.overload.peak_memory_pressure > 0.0
        ledger = net.machines[0].memory
        assert ledger.peak_pressure > 0.0
        # once every transaction sealed into a block, the debt is paid off
        assert ledger.level("consensus") == 0

    def test_state_growth_charged_after_commits(self):
        engine, net = make_net(response="shed_load",
                               state_tx_bytes=4096)
        flood(net, 50)
        net.active_until = 30.0
        engine.run(until=60.0)
        assert len(net.committed) > 0
        assert net.machines[0].memory.level("state") > 0


class TestOomCrash:
    def test_validators_crash_and_chain_dies(self):
        engine, net = make_net(response="oom_crash",
                               consensus_tx_bytes=256 * 1024,
                               oom_jitter=0.05)
        net.active_until = 60.0
        flood(net, 2000)
        engine.run(until=60.0)
        crashes = [e for e in net.overload.events
                   if e["kind"] == "oom_crash"]
        assert crashes, "no validator OOM-crashed under the flood"
        assert net.injector is not None
        assert not net._quorum_available()
        # each crash names a distinct node at finite pressure >= high water
        names = [e["node"] for e in crashes]
        assert len(names) == len(set(names))
        for event in crashes:
            assert event["pressure"] >= 0.9

    def test_jitter_staggers_crash_capacities(self):
        _, net = make_net(response="oom_crash", oom_jitter=0.05)
        capacities = {m.memory.capacity for m in net.machines}
        assert len(capacities) > 1

    def test_no_jitter_means_equal_capacities(self):
        _, net = make_net(response="oom_crash", oom_jitter=0.0)
        capacities = {m.memory.capacity for m in net.machines}
        assert len(capacities) == 1


class TestCommitStall:
    def test_consensus_stalls_and_stops_committing(self):
        engine, net = make_net(response="commit_stall",
                               consensus_tx_bytes=256 * 1024)
        net.active_until = 60.0
        flood(net, 2000)
        engine.run(until=60.0)
        stalls = [e for e in net.overload.events
                  if e["kind"] == "commit_stall"]
        assert len(stalls) == 1
        committed_at_stall = len(net.committed)
        flood(net, 100)
        engine.run(until=120.0)
        assert len(net.committed) == committed_at_stall
        assert net.stalled_rounds > 0


class TestShedLoad:
    def test_shedding_keeps_the_chain_committing(self):
        # continuous arrivals (400 tx/s) so submissions land inside the
        # shedding windows; target of ~0.25 blocks (300 transactions) so
        # a primed pool still rejects the excess at the door
        engine, net = make_net(response="shed_load",
                               consensus_tx_bytes=256 * 1024,
                               shed_pool_blocks=0.25)
        net.active_until = 120.0
        for t in range(120):
            engine.schedule_at(float(t), lambda: flood(net, 400))
        engine.run(until=130.0)
        shed_starts = [e for e in net.overload.events
                       if e["kind"] == "shed_start"]
        assert shed_starts, "admission never started shedding"
        assert net.admission.shed_rejections > 0
        committed_at_shed = sum(
            1 for tx in net.committed
            if tx.committed_at and tx.committed_at > shed_starts[0]["at"])
        assert committed_at_shed > 0, "shedding chain stopped committing"

    def test_shed_rejections_are_retried_then_dropped(self):
        engine, net = make_net(
            response="shed_load",
            retry_policy=RetryPolicy(max_attempts=2, base_delay=0.5,
                                     jitter=0.0, resubmit_on_expiry=False))
        net.admission.set_shedding(True, pool_target=0)
        accts = net.accounts.addresses()
        victim = transfer(accts[0], accts[1])
        assert net.submit_batch((victim,)) == 0
        assert not victim.aborted       # a retry is coming
        engine.run(until=30.0)
        assert victim.aborted
        assert net.drop_reasons.get("shed_load") == 1


#: overload_events of the crash runs below, recorded before a node's
#: levels became one set_levels call per round
PINNED_EVENTS = {
    "commit_stall": [
        {"at": 0.88, "kind": "commit_stall", "chain": "quorum",
         "pressure": 1.19}],
    "shed_load": [
        {"at": 0.88, "kind": "shed_start", "chain": "quorum",
         "pressure": 1.19, "pool_target": 300},
        {"at": 4.88, "kind": "shed_stop", "chain": "quorum",
         "pressure": 0.208},
        {"at": 5.68, "kind": "shed_start", "chain": "quorum",
         "pressure": 1.2, "pool_target": 300},
        {"at": 8.88, "kind": "shed_stop", "chain": "quorum",
         "pressure": 0.216},
        {"at": 9.68, "kind": "shed_start", "chain": "quorum",
         "pressure": 1.208, "pool_target": 300}],
}


class TestCrashedNodeFreezes:
    """A crashed node's footprint stays where it died; live nodes move.

    Node 1 crashes at 10.5 s, while every node is past high water, and
    stays down. Its frozen ledger is still high, so the commit stall never
    resumes and shedding never stops after the crash.
    """

    CATEGORIES = ("mempool", "consensus", "state")

    def _run(self, response):
        engine, net = make_net(response=response,
                               consensus_tx_bytes=256 * 1024,
                               shed_pool_blocks=0.25)
        injector = FaultInjector()
        net.attach_faults(injector)
        at_crash = {}

        def crash():
            injector.crash(1)
            at_crash.update(self._levels(net, 1))

        engine.schedule_at(10.5, crash)
        net.active_until = 60.0
        for t in range(40):
            engine.schedule_at(float(t), lambda: flood(net, 300))
        engine.run(until=80.0)
        return net, at_crash

    def _levels(self, net, index):
        ledger = net.machines[index].memory
        return {name: ledger.level(name) for name in self.CATEGORIES}

    @pytest.mark.parametrize("response", ["commit_stall", "shed_load"])
    def test_levels_freeze_at_the_crash(self, response):
        net, at_crash = self._run(response)
        assert at_crash and any(at_crash.values())
        assert self._levels(net, 1) == at_crash
        assert net.machines[1].memory.state == "high"
        for live in (0, 2, 3):
            assert self._levels(net, live) != at_crash
        assert net.overload.events == PINNED_EVENTS[response]


class TestDeterminism:
    def _events(self, seed):
        engine, net = make_net(base="solana", seed=seed,
                               response="oom_crash",
                               consensus_tx_bytes=256 * 1024,
                               oom_jitter=0.05)
        net.active_until = 60.0
        flood(net, 2000)
        engine.run(until=60.0)
        return net.overload.events

    def test_same_seed_same_crash_schedule(self):
        assert self._events(7) == self._events(7)

    def test_different_seed_different_margins(self):
        a = make_net(base="solana", seed=1, response="oom_crash")[1]
        b = make_net(base="solana", seed=2, response="oom_crash")[1]
        assert ([m.memory.capacity for m in a.machines]
                != [m.memory.capacity for m in b.machines])


class TestEndToEndScenario:
    """The §6.3 acceptance scenario, full pipeline at small scale."""

    def _run(self, chain, seed=0):
        spec = simple_spec(TransferSpec(AccountSample(500)),
                           LoadSchedule.constant(10_000, 60.0))
        return run_benchmark(chain, "testnet", spec,
                             workload_name="overload",
                             scale=0.02, seed=seed, drain=120.0)

    def test_solana_model_ooms_and_fails(self):
        result = self._run("solana")
        assert result.status == "failed"
        crashes = [e for e in result.overload_events
                   if e["kind"] == "oom_crash"]
        assert crashes, "no OOM crash recorded"
        first = min(e["at"] for e in crashes)
        assert 0.0 < first < 60.0
        assert result.stalled_at() is not None

    def test_diem_model_stalls_and_fails(self):
        result = self._run("diem")
        assert result.status == "failed"
        kinds = [e["kind"] for e in result.overload_events]
        assert "commit_stall" in kinds
        stalled_at = result.stalled_at()
        assert stalled_at is not None and stalled_at < 180.0

    def test_ethereum_model_sheds_and_survives(self):
        result = self._run("ethereum")
        assert result.status == "degraded"
        kinds = [e["kind"] for e in result.overload_events]
        assert "shed_start" in kinds
        assert "oom_crash" not in kinds
        assert result.stalled_at() is None
        # still committing: the run produced real throughput
        assert result.average_throughput > 0

    def test_summary_reports_events(self):
        summary = self._run("solana").summary()
        assert summary["status"] == "failed"
        assert summary["overload_events"]
        assert summary["liveness_events"]
        # crashed nodes freeze their footprint where they died, so the
        # peak sits at/above the high-water mark rather than at overcommit
        assert summary["chain_stats"]["memory_pressure_peak"] >= 0.9

    def test_scenario_is_deterministic(self):
        a = self._run("solana", seed=3).summary()
        b = self._run("solana", seed=3).summary()
        assert a == b


class TestDeadline:
    def _spec(self, deadline=None):
        return simple_spec(TransferSpec(AccountSample(100)),
                           LoadSchedule.constant(200, 30.0),
                           deadline=deadline)

    def test_max_sim_seconds_caps_the_run(self):
        result = run_benchmark("quorum", "testnet", self._spec(),
                               scale=0.05, max_sim_seconds=10.0)
        assert result.status == "failed"
        kinds = [e["kind"] for e in result.liveness_events]
        assert "deadline_hit" in kinds

    def test_spec_deadline_caps_the_run(self):
        result = run_benchmark("quorum", "testnet", self._spec(deadline=10.0),
                               scale=0.05)
        assert result.status == "failed"

    def test_generous_deadline_changes_nothing(self):
        result = run_benchmark("quorum", "testnet", self._spec(),
                               scale=0.05, max_sim_seconds=100_000.0)
        assert result.status == "ok"
        assert all(e["kind"] != "deadline_hit"
                   for e in result.liveness_events)
