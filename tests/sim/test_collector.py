"""The cyclic collector during a run, and the garbage a run leaves it.

A run's two entry points, ``Primary.run`` and ``ConsensusHarness.run``,
pause CPython's cyclic collector for their whole extent
(:func:`repro.sim.engine.collector_paused`) and give the caller back the
state it had, on a normal return and on an exception alike.

The pause is only cheap while the run makes next to no cyclic garbage:
whatever refcounting cannot free waits, uncollected, until the run ends.
So each kind of traffic is run with the collector paused, and
``gc.collect()`` right after it counts the cyclic garbage the run left
behind, with the run's own objects still held. That count must not grow
with the transactions: a per-transaction reference cycle fails here
instead of piling up during every run.

Once the run and its result are dropped, nothing at all may be left for
the collector: no cycle spans a finished run, so a process that runs one
after another (a sweep worker) frees each by reference counting. That
holds for a consensus harness too, though its run can be resumed and so
keeps its calendar.
"""

from __future__ import annotations

import gc
from pathlib import Path
from typing import Callable, Iterator, Tuple

import pytest

from repro.common.errors import SimulationError
from repro.consensus.base import ConsensusHarness
from repro.consensus.hotstuff import HotStuffReplica
from repro.consensus.ibft import IBFTReplica
from repro.core.primary import Primary
from repro.core.results import BenchmarkResult
from repro.core.spec import (AccountSample, LoadSchedule, TransferSpec,
                             WorkloadSpec, load_spec, simple_spec)
from repro.core.watchdog import LivenessWatchdog
from repro.sim.engine import collector_paused
from repro.workloads.registry import workload_registry

SPECS = Path(__file__).resolve().parents[2] / "examples" / "specs"
#: the most cyclic garbage one run may leave: the first run in a process
#: leaves ~350 objects of one-off set-up, a later one 0-30
MAX_CYCLIC_GARBAGE = 400


@pytest.fixture(params=[True, False], ids=["caller-on", "caller-off"])
def caller_state(request) -> Iterator[bool]:
    """The collector's state before the run, restored after the test."""
    was_enabled = gc.isenabled()
    if request.param:
        gc.enable()
    else:
        gc.disable()
    try:
        yield request.param
    finally:
        if was_enabled:
            gc.enable()
        else:
            gc.disable()


def transfers(rate: float) -> WorkloadSpec:
    return simple_spec(TransferSpec(AccountSample(50)),
                       LoadSchedule.constant(rate, 5))


def run_primary(schedule: Callable) -> None:
    primary = Primary("diem", "testnet", scale=1.0, seed=1)
    schedule(primary.engine)
    primary.run(transfers(20), drain=2)


def run_harness(schedule: Callable) -> None:
    harness = ConsensusHarness([HotStuffReplica() for _ in range(4)])
    schedule(harness.engine)
    harness.run(0.5)


RUNS = pytest.mark.parametrize("run", [run_primary, run_harness],
                               ids=["Primary.run", "ConsensusHarness.run"])


class TestScope:
    @RUNS
    def test_a_callback_inside_the_run_sees_the_collector_off(
            self, run, caller_state):
        seen = []
        run(lambda engine: engine.schedule_at(
            0.1, lambda: seen.append(gc.isenabled())))
        assert seen == [False]
        assert gc.isenabled() is caller_state

    @RUNS
    def test_a_raising_callback_restores_the_caller_state(
            self, run, caller_state):
        def fail() -> None:
            raise SimulationError("boom")

        with pytest.raises(SimulationError, match="boom"):
            run(lambda engine: engine.schedule_at(0.1, fail))
        assert gc.isenabled() is caller_state

    def test_a_nested_use_stays_paused_until_the_outermost_exits(
            self, caller_state):
        with collector_paused():
            with collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
            with pytest.raises(ValueError):
                with collector_paused():
                    raise ValueError
            assert not gc.isenabled()
        assert gc.isenabled() is caller_state

    def test_turning_back_on_walks_the_survivors_once(self, caller_state):
        # a caller with the collector on gets the paused stretch's
        # survivors in the oldest generation; one with it off, untouched
        with collector_paused():
            survivor = [None]
        oldest = gc.get_objects(generation=2)
        assert any(item is survivor for item in oldest) is caller_state


#: an example spec and a chain that runs it, for each spec
EXAMPLE_RUNS = pytest.mark.parametrize("name, chain", [
    ("crash-and-recover", "quorum"), ("overload", "solana"),
    ("overload", "ethereum"), ("dos", "ethereum"), ("dos", "algorand"),
    ("byzantine", "quorum"), ("partition", "quorum"),
    ("population", "ethereum"), ("transfer", "ethereum"),
    ("dapp", "quorum")])
CHAINS = ("algorand", "avalanche", "diem", "ethereum", "quorum", "solana")


def cyclic_garbage_after(run: Callable[[], object]) -> Tuple[int, object]:
    """The unreachable objects ``run()`` leaves, its result still held."""
    gc.collect()
    with collector_paused():
        kept = run()
        return gc.collect(), kept


def chain_run(chain: str, spec: WorkloadSpec, scale: float = 1.0,
              **options) -> Callable[[], Tuple[Primary, BenchmarkResult]]:
    def run() -> Tuple[Primary, BenchmarkResult]:
        primary = Primary(chain, "testnet", scale=scale, seed=1)
        return primary, primary.run(spec, **options)
    return run


class TestCyclicGarbage:
    def test_transfers_leave_the_same_garbage_at_any_size(self):
        # a warm-up run takes the first run's one-off set-up garbage
        cyclic_garbage_after(chain_run("diem", transfers(100), drain=5))
        small, (_, small_result) = cyclic_garbage_after(
            chain_run("diem", transfers(100), drain=5))
        large, (_, large_result) = cyclic_garbage_after(
            chain_run("diem", transfers(400), drain=5))
        assert (len(small_result.records),
                len(large_result.records)) == (510, 2040)
        assert small == large <= MAX_CYCLIC_GARBAGE

    @EXAMPLE_RUNS
    def test_each_example_spec(self, name, chain):
        spec = load_spec((SPECS / f"{name}.yaml").read_text())
        found, (_, result) = cyclic_garbage_after(
            chain_run(chain, spec, scale=0.05))
        assert result.records
        assert found <= MAX_CYCLIC_GARBAGE

    def test_every_example_spec_is_covered(self):
        names = {path.stem for path in SPECS.glob("*.yaml")}
        assert names == {"crash-and-recover", "overload", "dos", "byzantine",
                         "partition", "population", "transfer", "dapp"}

    def test_loading_a_spec_leaves_nothing(self):
        texts = [path.read_text() for path in sorted(SPECS.glob("*.yaml"))]
        # a first pass takes the one-off set-up: the loader class, and
        # the modules a spec's sections import
        for text in texts:
            load_spec(text)
        gc.collect()
        with collector_paused():
            for text in texts:
                load_spec(text)
            assert gc.collect() == 0

    def test_a_sixteen_replica_hotstuff_harness(self):
        def run() -> ConsensusHarness:
            harness = ConsensusHarness(
                [HotStuffReplica() for _ in range(16)])
            harness.run(1.0)
            return harness

        found, harness = cyclic_garbage_after(run)
        assert harness.decisions
        assert found <= MAX_CYCLIC_GARBAGE


def garbage_after_dropping(run: Callable[[], object]) -> int:
    """The unreachable objects ``run()`` leaves once its result is dropped.

    The collector stays paused throughout, so the run's own exit cannot
    collect anything on its behalf: whatever a cycle holds is counted.
    """
    gc.collect()
    with collector_paused():
        run()
        return gc.collect()


class TestADiscardedRunLeavesNothing:
    """Dropping a run's Primary and its result frees the whole run by
    reference counting: no reference cycle spans a finished run, so a
    sweep worker holds one cell at a time without a cyclic collection."""

    @pytest.fixture(scope="class", autouse=True)
    def warm_up(self):
        # the first run in a process leaves its one-off set-up
        garbage_after_dropping(chain_run("diem", transfers(100), drain=5))

    @pytest.mark.parametrize("chain", CHAINS)
    def test_each_chain(self, chain):
        spec = workload_registry()["native-1000"].spec(accounts=2_000)
        assert garbage_after_dropping(chain_run(chain, spec, scale=0.05)) == 0

    @EXAMPLE_RUNS
    def test_each_example_spec(self, name, chain):
        spec = load_spec((SPECS / f"{name}.yaml").read_text())
        assert garbage_after_dropping(chain_run(chain, spec, scale=0.05)) == 0

    @pytest.mark.parametrize("replica", [HotStuffReplica, IBFTReplica],
                             ids=["hotstuff", "ibft"])
    def test_a_sixteen_replica_harness(self, replica):
        # stopped mid-run, with timers and messages still on the calendar
        def run() -> None:
            harness = ConsensusHarness([replica() for _ in range(16)])
            harness.run(0.5)
            assert harness.decisions

        assert garbage_after_dropping(run) == 0

    def test_a_stopped_watchdog_hears_no_commit(self):
        heard = {}

        class Listening(LivenessWatchdog):
            def _on_commit(self, txs) -> None:
                heard[self] = heard.get(self, 0) + 1
                super()._on_commit(txs)

        primary = Primary("diem", "testnet", scale=1.0, seed=1)
        stopped = Listening(primary.engine, primary.network)
        running = Listening(primary.engine, primary.network)
        stopped.stop()
        result = primary.run(transfers(20), drain=2)
        assert result.commit_ratio > 0
        assert heard.get(running, 0) > 0
        assert stopped not in heard
