"""perfbench's own tests: ``python -m pytest perfbench/tests`` (< 30 s).

Every workload runs at a tenth of its pinned size; the numbers mean
nothing, the plumbing is what is checked.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

import probe  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

SIZE = 0.1


@pytest.fixture(scope="module")
def contract():
    return run.Contract()


@pytest.fixture(scope="module")
def measured(contract):
    """Two untraced passes and one traced pass of all seven workloads."""
    saved = run.SETUP_SAMPLES
    run.SETUP_SAMPLES = 2    # ten launches per workload is the slow part
    try:
        runs = run.run_passes(contract.workloads, seed=3, size=SIZE, passes=2,
                              seconds=None, trace=True)
    finally:
        run.SETUP_SAMPLES = saved
    reports = {name: run.report_workload(name, runs, contract, None)
               for name in contract.workloads}
    return runs, reports


def test_no_operation_fails_and_digests_repeat(measured):
    runs, reports = measured
    for name, report in reports.items():
        assert report["failures"] == [], name
        assert report["failed_ops"] == 0 and report["ops"] >= 3, name
        digests = {r["digest"] for r in runs.untraced[name] + runs.traced[name]}
        assert len(digests) == 1, f"{name}: traced and untraced differ"
    # a warm sweep replays the cold sweep that filled its cache, byte for byte
    assert reports["sweep-warm"]["digest"] == runs.fixture["digest"]
    assert reports["sweep-warm"]["digest"] == reports["sweep-cold"]["digest"]


def test_every_workload_reports_every_metric(measured, contract):
    _, reports = measured
    for name, report in reports.items():
        assert list(report["end_to_end"]) == list(contract.end_to_end), name
        for metric, stats in report["end_to_end"].items():
            assert stats["n"] >= 2 and stats["median"] > 0, (name, metric)
        assert list(report["per_layer"]) == list(contract.per_layer), name
        assert report["per_layer"]["trace.overhead_ratio"] > 0, name


def test_result_line_names_equal_benchmark_json(measured, contract):
    _, reports = measured
    for trace, names in ((False, contract.end_to_end),
                         (True, contract.per_layer)):
        line = json.loads(run.contract_line(reports["transfer-steady"],
                                            contract, trace))
        assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
        assert line["correct"] is True and line["failed"] == 0
        assert list(line["metrics"]) == list(names)
        for name, metric in line["metrics"].items():
            assert metric["unit"] == names[name]["unit"]
            assert isinstance(metric["value"], (int, float))


def test_span_self_times_sum_to_the_root_span(measured):
    runs, _ = measured
    for name, records in runs.traced.items():
        layers = records[0]["layers"]
        total = sum(layers[metric] for metric in spans.SELF_TIME)
        assert total == pytest.approx(records[0]["wall_s"], rel=0.01), name


def test_layers_land_where_the_workloads_say(measured):
    _, reports = measured
    layers = {name: report["per_layer"] for name, report in reports.items()}
    mobility = layers["dapp-mobility"]
    assert mobility["vm.execute_s"] == max(
        mobility[metric] for metric in spans.SELF_TIME)
    assert layers["population-1m"]["results.records"] < 1_000
    assert layers["consensus-msg"]["engine.self_s"] > 0
    assert layers["consensus-msg"]["pipeline.self_s"] == 0
    assert layers["transfer-steady"]["pipeline.self_s"] > 0
    assert layers["transfer-steady"]["engine.self_s"] == 0
    assert layers["sweep-cold"]["sweep.cache_misses"] == 6
    assert layers["sweep-warm"]["sweep.cache_hits"] == 6
    assert layers["sweep-warm"]["vm.execute_calls"] == 0


def test_wrapped_callables_are_restored():
    from repro.chain.mempool import Mempool
    from repro.consensus.hotstuff import HotStuffReplica
    from repro.core.results import BenchmarkResult
    from repro.sweep import runner

    def current():
        return (vars(Mempool)["add"], vars(HotStuffReplica)["on_message"],
                vars(BenchmarkResult)["from_json"], runner.cell_key)

    before = current()
    tracer = spans.Tracer()
    tracer.install()
    assert all(new is not old for new, old in zip(current(), before))
    assert isinstance(vars(BenchmarkResult)["from_json"], staticmethod)
    tracer.uninstall()
    assert all(new is old for new, old in zip(current(), before))


def test_tracer_self_times_partition_and_count_failures():
    tracer = spans.Tracer()

    def leaf(fail):
        if fail:
            raise ValueError("rejected")
        return [1, 2, 3]

    leaf = tracer.wrap(leaf, "leaf", len)

    def middle():
        leaf(False)
        with pytest.raises(ValueError):
            leaf(True)

    middle = tracer.wrap(middle, "middle")
    tracer.wrap(lambda: (middle(), middle()), spans.ROOT)()
    folded = tracer.fold()
    assert folded["leaf"]["calls"] == 4
    assert folded["leaf"]["count"] == 6        # two successes of three
    assert folded["middle"]["calls"] == folded["middle"]["count"] == 2
    assert sum(row["self_s"] for row in folded.values()) == pytest.approx(
        folded[spans.ROOT]["total_s"])


def test_speed_probe_region_arithmetic():
    ref = probe.REFERENCE_CHUNK_S
    speed_probe = probe.SpeedProbe()
    speed_probe.chunks = [2 * ref, 2 * ref, ref]
    assert speed_probe.region(0, 2) == pytest.approx((4 * ref, 0.5))
    assert speed_probe.region(2, 3) == pytest.approx((ref, 1.0))
    # a region too short for a sample borrows the one before it
    assert speed_probe.region(3, 3) == pytest.approx((0.0, 1.0))


def test_speed_probe_samples_on_a_timer_and_restores_the_signal():
    import signal
    import time

    speed_probe = probe.SpeedProbe()
    speed_probe.start()
    since = speed_probe.mark()
    deadline = time.perf_counter() + 20 * probe.INTERVAL_S
    while time.perf_counter() < deadline:
        pass
    speed_probe.stop()
    in_chunks, speed = speed_probe.region(since, speed_probe.mark())
    assert speed_probe.mark() - since >= 5
    assert 0 < in_chunks < 20 * probe.INTERVAL_S and speed > 0
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def _stats(*samples):
    return run.quartiles(samples)


def test_compare_with_itself_is_all_same(tmp_path, capsys, contract):
    report = {"workloads": {"transfer-steady": {
        "tx": 60000, "sim": {"sim.committed": 60000},
        "end_to_end": {"tx_per_wall_s": _stats(30100, 30000, 29900, 30050),
                       "wall_s": _stats(1.99, 2.0, 2.01, 2.0),
                       "peak_rss_mb": _stats(136.0, 136.1, 136.2),
                       "setup_s": _stats(0.35, 0.36, 0.34, 0.35)}}}}
    path = tmp_path / "a.json"
    path.write_text(json.dumps(report))
    assert run.compare(str(path), str(path), contract) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert len(rows) == 4 and all(row.endswith("same") for row in rows)


def test_verdicts():
    lower = {"better": "lower", "bound": 0.10}
    higher = {"better": "higher", "bound": 0.10}
    base = _stats(1.00, 1.01, 0.99, 1.00)
    assert run.verdict(base, _stats(1.20, 1.21, 1.19, 1.20), lower) == "worse"
    assert run.verdict(base, _stats(1.20, 1.21, 1.19, 1.20), higher) == "better"
    assert run.verdict(base, _stats(1.05, 1.04, 1.06, 1.05), lower) == "same"
    noisy = _stats(0.8, 1.0, 1.3, 1.6)
    assert run.verdict(base, noisy, lower) == "unresolved"


def test_expected_json_pins_tx_and_only_flags_the_digest():
    record = {"ops": 1, "failures": [], "tx": 10, "digest": "aa",
              "sim": {"sim.committed": 10}}
    runs = run.Passes(["transfer-steady"], 1, 1.0, "unused")
    runs.untraced["transfer-steady"] = [record, dict(record)]
    same = run.check("transfer-steady", runs, {"tx": 10, "digest": "aa"})
    assert same["failed_ops"] == 0 and not same["sim_changed"]
    changed = run.check("transfer-steady", runs, {"tx": 10, "digest": "bb"})
    assert changed["failed_ops"] == 0 and changed["sim_changed"]
    resized = run.check("transfer-steady", runs, {"tx": 11, "digest": "aa"})
    assert resized["failed_ops"] == resized["ops"] == 2
    runs.untraced["transfer-steady"][1]["digest"] = "cc"
    diverged = run.check("transfer-steady", runs, None)
    assert diverged["failed_ops"] == 1
