#!/usr/bin/env python3
"""perfbench — what the simulator costs its user, per transaction.

Runs the pinned workloads of ``BENCHMARK.json`` through ``repro``'s public
API, one (workload, pass) per fresh child process, one child at a time,
passes interleaved across workloads. Untraced passes give the end-to-end
metrics (host wall-clock and RSS); traced passes give the per-layer
metrics; every pass is checked, and simulated-clock results must repeat
exactly. Host times are in seconds at the reference speed: ``probe.py``
samples the box's speed inside every timed region and takes its drift
out; what the clock said is reported next to them. See
``perfbench/README.md``.

    python3 perfbench/run.py [--workload W] [--passes N | --seconds T]
                             [--seed S] [--trace 0|1] [--out FILE]
    python3 perfbench/run.py --compare A.json B.json

With one ``--workload`` the last line printed is the one-object JSON
result ``BENCHMARK.json``'s driver reads: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

DEFAULT_PASSES = 5
#: set-up is ~0.27 s; five samples leave the median swinging +-30 %, ten
#: bring its ten-run interquartile range to 5-12 % (README, Noise)
SETUP_SAMPLES = 10
CHILD_TIMEOUT_S = 60


class Contract:
    """``BENCHMARK.json``: the one place workload and metric names, units,
    directions and regression bounds are written down."""

    def __init__(self) -> None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            document = json.load(handle)
        self.workloads = [w["name"] for w in document["workloads"]]
        self.end_to_end = {m["name"]: m for m in document["end_to_end"]}
        self.per_layer = {m["name"]: m for m in document["per_layer"]}


# -- one child ------------------------------------------------------------------


def launch(workload: str, seed: int, size: float, *extra: str
           ) -> Dict[str, Any]:
    """Run ``child.py`` once; a child that dies is one failed operation."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.pathsep.join(
        filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    for name in ("REPRO_SCALE", "REPRO_CODE_VERSION"):
        env.pop(name, None)
    # -B: no bytecode is left in the tree, so every launch compiles src/
    # like the first import in a fresh checkout does
    command = [sys.executable, "-B", os.path.join(HERE, "child.py"), workload,
               "--seed", str(seed), "--size", repr(size),
               "--spawned-at", repr(time.time()), *extra]
    # its own session, so a child that hangs is stopped with its sweep pool
    with subprocess.Popen(command, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as child:
        try:
            stdout, stderr = child.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            return {"ops": 1,
                    "failures": [f"no result in {CHILD_TIMEOUT_S} s"]}
    if child.returncode != 0:
        tail = stderr.strip().splitlines()[-1:] or ["no stderr"]
        return {"ops": 1, "failures": [
            f"child exited {child.returncode}: {tail[0]}"]}
    return json.loads(stdout.splitlines()[-1])


# -- the passes -----------------------------------------------------------------


class Passes:
    """Every child record of one invocation, per workload."""

    def __init__(self, names: Sequence[str], seed: int, size: float,
                 work: str) -> None:
        self.names = list(names)
        self.seed = seed
        self.size = size
        self.work = work
        self.untraced: Dict[str, List[Dict]] = {n: [] for n in names}
        self.traced: Dict[str, List[Dict]] = {n: [] for n in names}
        self.setup: Dict[str, List[float]] = {n: [] for n in names}
        #: the untimed cold sweep that fills sweep-warm's cache
        self.fixture: Optional[Dict] = None
        self.warm_cache = os.path.join(work, "warm")

    def fill_warm_cache(self) -> None:
        """A benchmark fixture, not set-up of the program: not timed."""
        self.fixture = launch("sweep-cold", self.seed, self.size,
                              "--cache", self.warm_cache)

    def one(self, name: str, traced: bool) -> None:
        extra: List[str] = []
        cold_cache = None
        if name == "sweep-cold":
            cold_cache = tempfile.mkdtemp(dir=self.work)
            extra += ["--cache", cold_cache]
        elif name == "sweep-warm":
            extra += ["--cache", self.warm_cache]
        if traced:
            extra.append("--traced")
        record = launch(name, self.seed, self.size, *extra)
        if cold_cache is not None:
            shutil.rmtree(cold_cache)
        (self.traced if traced else self.untraced)[name].append(record)
        if not traced and "setup_s" in record:
            self.setup[name].append(record["setup_s"])

    def stage(self, traced: bool,
              done: Callable[[int, float], bool]) -> None:
        """Interleaved rounds (A..G, A..G, ...): a slow spell on a shared
        box hits every workload alike. ``done(passes, seconds_spent)``."""
        records = self.traced if traced else self.untraced
        spent = dict.fromkeys(self.names, 0.0)
        while True:
            pending = [n for n in self.names
                       if not done(len(records[n]), spent[n])]
            if not pending:
                return
            for name in pending:
                start = time.perf_counter()
                self.one(name, traced)
                spent[name] += time.perf_counter() - start

    def top_up_setup(self) -> None:
        for name in self.names:
            extra = (["--cache", self.warm_cache]
                     if name.startswith("sweep-") else [])
            while len(self.setup[name]) < SETUP_SAMPLES:
                record = launch(name, self.seed, self.size, "--setup-only",
                                *extra)
                if "setup_s" not in record:
                    self.untraced[name].append(record)   # a failed launch
                    break
                self.setup[name].append(record["setup_s"])


def run_passes(names: Sequence[str], seed: int, size: float,
               passes: Optional[int], seconds: Optional[float],
               trace: bool) -> Passes:
    """Untraced stage, set-up top-up, then (with *trace*) the traced stage.

    ``--passes N`` makes N untraced passes and one traced pass;
    ``--seconds T`` measures each workload for T seconds, split evenly
    between the two stages when tracing. *size* scales the pinned sizes
    for perfbench's own tests; the command line always measures at 1.0.
    """
    # sweep caches. Not in the system's temporary directory: the driver of
    # BENCHMARK.json lets a run read and write only inside its checkout
    with tempfile.TemporaryDirectory(dir=HERE, prefix=".tmp") as work:
        runs = Passes(names, seed, size, work)
        if "sweep-warm" in names:
            runs.fill_warm_cache()
        if seconds is not None:
            budget = seconds / 2 if trace else seconds
            done = traced_done = lambda count, spent: spent >= budget
        else:
            done = lambda count, spent: count >= passes
            traced_done = lambda count, spent: count >= 1
        runs.stage(False, done)
        runs.top_up_setup()
        if trace:
            runs.stage(True, traced_done)
    return runs


# -- checking and reporting -----------------------------------------------------


def quartiles(samples: Sequence[float]) -> Dict[str, Any]:
    if len(samples) > 1:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {"median": statistics.median(samples), "min": min(samples),
            "max": max(samples), "q1": q1, "q3": q3, "n": len(samples),
            "samples": list(samples)}


def check(name: str, runs: Passes, expected: Optional[Dict[str, Any]]
          ) -> Dict[str, Any]:
    """Count operations and failures; simulated results must repeat."""
    records = runs.untraced[name] + runs.traced[name]
    if name == "sweep-warm" and runs.fixture is not None:
        # byte equality with the cold sweep that filled the cache
        records = [runs.fixture] + records
    reference = next((r for r in records if "digest" in r), None)
    failures: List[str] = []
    ops = failed = 0
    for index, record in enumerate(records):
        problems = list(record["failures"])
        if "digest" in record:
            for key in ("tx", "digest", "sim"):
                if record[key] != reference[key]:
                    problems.append(f"{key} differs from the first pass")
        ops += record["ops"]
        failed += min(record["ops"], len(problems))
        failures += [f"pass {index}: {problem}" for problem in problems]
    checked = {"ops": ops, "failed_ops": failed, "failures": failures,
               "sim_changed": False}
    if reference is not None:
        checked.update(tx=reference["tx"], digest=reference["digest"],
                       sim=reference["sim"])
        if expected is not None:
            if reference["tx"] != expected["tx"]:
                # the denominator moved: tx_per_wall_s is not comparable
                checked["failed_ops"] = ops
                failures.append(f"tx {reference['tx']} != expected.json's"
                                f" {expected['tx']}")
            checked["sim_changed"] = reference["digest"] != expected["digest"]
    return checked


def report_workload(name: str, runs: Passes, contract: Contract,
                    expected: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    report = check(name, runs, expected)
    untraced = [r for r in runs.untraced[name] if "wall_s" in r]
    traced = [r for r in runs.traced[name] if "wall_s" in r]
    if untraced:
        samples = {
            "tx_per_wall_s": [r["tx"] / r["wall_s"] for r in untraced],
            "wall_s": [r["wall_s"] for r in untraced],
            "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
            "setup_s": runs.setup[name],
        }
        report["end_to_end"] = {metric: quartiles(samples[metric])
                                for metric in contract.end_to_end}
    if traced:
        layers: Dict[str, float] = {}
        for metric in contract.per_layer:
            # untraced samples where the metric exists without tracing
            source = ([r["layers"][metric] for r in untraced
                       if metric in r["layers"]]
                      or [r["layers"].get(metric, 0) for r in traced])
            layers[metric] = statistics.median(source)
        if untraced:
            layers["trace.overhead_ratio"] = (
                statistics.median(r["wall_s"] for r in traced)
                / report["end_to_end"]["wall_s"]["median"])
        report["per_layer"] = layers
        # every span of the last traced pass, folded per span name
        report["spans"] = traced[-1]["spans"]
    return report


def print_report(name: str, report: Dict[str, Any],
                 contract: Contract) -> None:
    print(f"\n== {name}: ops {report['ops']}, failed_ops"
          f" {report['failed_ops']}, tx {report.get('tx', '?')}")
    for failure in report["failures"]:
        print(f"   FAILED {failure}")
    if report["sim_changed"]:
        print(f"SIM-CHANGED {name}: sim.digest {report['digest'][:16]}…"
              " differs from expected.json")
    if "end_to_end" in report:
        print(f"   {'host, end to end':<22}{'median':>12}{'min':>12}"
              f"{'q1':>12}{'q3':>12}{'n':>4}")
        for metric, stats in report["end_to_end"].items():
            unit = contract.end_to_end[metric]["unit"]
            print(f"   {metric + ' [' + unit + ']':<22}"
                  f"{stats['median']:>12.4f}{stats['min']:>12.4f}"
                  f"{stats['q1']:>12.4f}{stats['q3']:>12.4f}"
                  f"{stats['n']:>4}")
        wall_us = 1e6 / report["end_to_end"]["tx_per_wall_s"]["median"]
        print(f"   wall_us_per_tx [us]   {wall_us:>12.4f}   (not gated)")
    if "per_layer" in report:
        print("   per layer (host self-time s / counts; sim.* = virtual"
              " clock, must repeat exactly):")
        for metric, value in report["per_layer"].items():
            if value:
                print(f"     {metric:<34}{value:>16.6g}"
                      f" {contract.per_layer[metric]['unit']}")


def contract_line(report: Dict[str, Any], contract: Contract,
                  trace: bool) -> str:
    """The one-object result the benchmark's driver reads."""
    if trace:
        metrics = {name: {"value": report["per_layer"][name],
                          "unit": spec["unit"]}
                   for name, spec in contract.per_layer.items()}
    else:
        metrics = {name: {"value": report["end_to_end"][name]["median"],
                          "unit": spec["unit"]}
                   for name, spec in contract.end_to_end.items()}
    return json.dumps({"correct": report["failed_ops"] == 0,
                       "attempted": report["ops"],
                       "failed": report["failed_ops"],
                       "metrics": metrics})


# -- comparing two invocations --------------------------------------------------


def verdict(a: Dict[str, Any], b: Dict[str, Any], spec: Dict[str, Any]
            ) -> str:
    """``same``/``better``/``worse``, or ``unresolved`` when the spread is
    wider than the bound and the two sets of runs overlap."""
    sign = 1.0 if spec["better"] == "lower" else -1.0
    worse_by = sign * (b["median"] - a["median"]) / a["median"]
    spread = max((s["q3"] - s["q1"]) / s["median"] for s in (a, b))
    overlap = a["min"] <= b["max"] and b["min"] <= a["max"]
    if spread > spec["bound"] and overlap:
        return "unresolved"
    if worse_by > spec["bound"]:
        return "worse"
    if worse_by < -spec["bound"]:
        return "better"
    return "same"


def compare(path_a: str, path_b: str, contract: Contract) -> int:
    """One row per (workload, end-to-end metric); exit 1 on any ``worse``."""
    with open(path_a) as handle:
        a = json.load(handle)["workloads"]
    with open(path_b) as handle:
        b = json.load(handle)["workloads"]
    print(f"{'workload':<20}{'metric':<15}{'A median [q1, q3]':>32}"
          f"{'B median [q1, q3]':>32}{'bound':>7}  verdict")
    worse = 0
    for name in a:
        if name not in b:
            continue
        for key in ("tx", "sim"):
            if a[name].get(key) != b[name].get(key):
                print(f"{name:<20}{key} differs between the two files")
                worse += 1
        for metric, spec in contract.end_to_end.items():
            sa = a[name]["end_to_end"][metric]
            sb = b[name]["end_to_end"][metric]
            result = verdict(sa, sb, spec)
            worse += result == "worse"
            cells = [f"{s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}]"
                     for s in (sa, sb)]
            print(f"{name:<20}{metric:<15}{cells[0]:>32}{cells[1]:>32}"
                  f"{spec['bound']:>7.0%}  {result}")
    return 1 if worse else 0


# -- command line ---------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    contract = Contract()
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=contract.workloads,
                        help="one workload (default: all, interleaved)")
    parser.add_argument("--seed", type=int, default=1)
    budget = parser.add_mutually_exclusive_group()
    budget.add_argument("--passes", type=int,
                        help=f"untraced passes (default {DEFAULT_PASSES})")
    budget.add_argument("--seconds", type=float,
                        help="measure each workload this long instead")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1 (default): add the traced stage")
    parser.add_argument("--out", help="write the full report as JSON:"
                        " samples, per-layer values and the span table")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare, contract)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no package to measure at {SRC}", file=sys.stderr)
        return 2
    if args.passes is None and args.seconds is None:
        args.passes = DEFAULT_PASSES

    trace = bool(args.trace)
    names = [args.workload] if args.workload else contract.workloads
    runs = run_passes(names, args.seed, 1.0, args.passes, args.seconds, trace)
    expected = {}
    if args.seed == 1:
        with open(os.path.join(HERE, "expected.json")) as handle:
            expected = json.load(handle)
    reports = {name: report_workload(name, runs, contract,
                                     expected.get(name))
               for name in names}
    for name, report in reports.items():
        print_report(name, report, contract)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"seed": args.seed, "workloads": reports}, handle,
                      indent=1)
    failed = sum(report["failed_ops"] for report in reports.values())
    print(f"\nperfbench: {sum(r['ops'] for r in reports.values())} ops,"
          f" {failed} failed")
    measured = "per_layer" if trace else "end_to_end"
    if args.workload and measured in reports[args.workload]:
        print(contract_line(reports[args.workload], contract, trace))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
