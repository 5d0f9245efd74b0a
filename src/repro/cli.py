"""Command-line interface mirroring the DIABLO artifact's entry points.

The real tool is invoked as::

    diablo primary -vvv --port=5000 --output=results.json --compress \
        --stat 10 setup.yaml workload.yaml

Here the "setup" is a chain + deployment-configuration pair and the
workload is the same YAML dialect::

    python -m repro run --chain quorum --configuration testnet \
        --output results.json workload.yaml

    python -m repro suite --chain solana --configuration consortium \
        --workload fifa

    python -m repro population --chain ethereum --users 1000000 \
        --rate-per-user 0.001 --duration 120

    python -m repro csv results.json > results.csv

    python -m repro trace ethereum --duration 30 --chrome-trace out.json

    python -m repro sweep experiments.yaml --workers 4

``run`` executes a YAML workload specification; ``suite`` runs one of the
built-in DApp/synthetic traces; ``population`` simulates an aggregate
client population (millions of users as batched arrival processes plus a
tracked cohort — see docs/SCALE.md); ``sweep`` executes a whole
experiment matrix (chains × configurations × workloads × seeds × scales
× populations) over a worker pool with result caching; ``csv`` converts
a results JSON file to
the artifact's per-transaction CSV format; ``trace`` runs a short
workload with full observability (lifecycle tracer + engine profiler)
and prints the per-phase latency breakdown; ``chains`` and ``workloads``
list what is available. The simulator's own host cost is measured from
outside the package, by ``python3 perfbench/run.py`` (docs/BENCHMARKS.md).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.common.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.core.results import BenchmarkResult
    from repro.core.spec import WorkloadSpec

#: default on-disk result cache for ``python -m repro sweep``
DEFAULT_CACHE_DIR = "~/.cache/repro/sweeps"


def _add_chain_setup(parser: argparse.ArgumentParser) -> None:
    """``--configuration``, ``--scale`` and ``--seed``, which every
    chain-running command takes."""
    from repro.sim.deployment import CONFIGURATIONS

    parser.add_argument("--configuration", default="testnet",
                        choices=sorted(CONFIGURATIONS))
    parser.add_argument("--scale", type=float, default=None,
                        help="experiment scale factor (default: REPRO_SCALE)")
    parser.add_argument("--seed", type=int, default=0)


def _add_common(parser: argparse.ArgumentParser) -> None:
    from repro.blockchains.registry import CHAIN_NAMES

    parser.add_argument("--chain", required=True, choices=CHAIN_NAMES)
    _add_chain_setup(parser)
    parser.add_argument("--accounts", type=int, default=2_000)
    parser.add_argument("--output", type=Path, default=None,
                        help="write the full results JSON here")
    parser.add_argument("--compress", action="store_true",
                        help="gzip the JSON output (like diablo --compress)")
    parser.add_argument("--stat", action="store_true",
                        help="print summary statistics to stdout")
    parser.add_argument("--max-sim-seconds", type=float, default=None,
                        help="cap total simulated seconds; a run cut short"
                        " by the cap is marked failed")
    parser.add_argument("--watchdog-window", type=float, default=30.0,
                        help="no-commit-progress window (simulated seconds)"
                        " before the liveness watchdog declares a stall")


def _emit(result: BenchmarkResult, output: Optional[Path],
          stat: bool, compress: bool = False) -> None:
    if output is not None:
        if compress:
            import gzip
            target = (output if output.suffix == ".gz"
                      else output.with_suffix(output.suffix + ".gz"))
            with gzip.open(target, "wt") as handle:
                handle.write(result.to_json())
            print(f"wrote {target}", file=sys.stderr)
        else:
            output.write_text(result.to_json())
            print(f"wrote {output}", file=sys.stderr)
    if stat or output is None:
        print(json.dumps(result.summary(), indent=2))


def _transfer_spec(args: argparse.Namespace, runtime: float,
                   **sections: object) -> WorkloadSpec:
    """One client transferring at ``--rate`` for *runtime* seconds."""
    from repro.core.spec import (
        AccountSample,
        LoadSchedule,
        TransferSpec,
        simple_spec,
    )
    return simple_spec(TransferSpec(AccountSample(args.accounts)),
                       LoadSchedule.constant(args.rate, runtime), **sections)


# -- run / suite / population -------------------------------------------------


def _add_run(parser: argparse.ArgumentParser) -> None:
    _add_common(parser)
    parser.add_argument("workload", type=Path,
                        help="workload specification YAML file")


def _run(args: argparse.Namespace) -> int:
    from repro.core.runner import run_benchmark

    result = run_benchmark(args.chain, args.configuration,
                           args.workload.read_text(),
                           workload_name=args.workload.stem,
                           scale=args.scale, seed=args.seed,
                           max_sim_seconds=args.max_sim_seconds,
                           watchdog_window=args.watchdog_window)
    _emit(result, args.output, args.stat, args.compress)
    return 0


def _add_suite(parser: argparse.ArgumentParser) -> None:
    from repro.workloads.registry import workload_registry

    _add_common(parser)
    parser.add_argument("--workload", required=True,
                        choices=sorted(workload_registry()))


def _suite(args: argparse.Namespace) -> int:
    from repro.core.runner import run_trace
    from repro.workloads.registry import workload_registry

    trace = workload_registry()[args.workload]
    result = run_trace(args.chain, args.configuration, trace,
                       accounts=args.accounts, scale=args.scale,
                       seed=args.seed,
                       max_sim_seconds=args.max_sim_seconds,
                       watchdog_window=args.watchdog_window)
    _emit(result, args.output, args.stat, args.compress)
    return 0


def _add_population(parser: argparse.ArgumentParser) -> None:
    from repro.core.population import ARRIVAL_KINDS

    _add_common(parser)
    parser.add_argument("--users", required=True, type=int,
                        help="simulated population size")
    parser.add_argument("--rate-per-user", type=float, default=0.001,
                        help="transactions per second each user submits"
                        " (population offered load = users x rate)")
    parser.add_argument("--duration", type=float, default=120.0,
                        help="workload duration (seconds)")
    parser.add_argument("--cohort", type=int, default=None,
                        help="tracked-cohort size (default: min(1000,"
                        " users)); cohort members run as ordinary clients"
                        " so their transactions keep full per-tx metrics")
    parser.add_argument("--arrival", default="poisson",
                        choices=ARRIVAL_KINDS,
                        help="aggregate-lane arrival process")


def _population(args: argparse.Namespace) -> int:
    from repro.analysis.summary import population_report
    from repro.core.runner import run_population

    result = run_population(args.chain, args.configuration,
                            users=args.users,
                            rate_per_user=args.rate_per_user,
                            duration=args.duration,
                            cohort=args.cohort,
                            arrival=args.arrival,
                            accounts=args.accounts,
                            scale=args.scale, seed=args.seed,
                            max_sim_seconds=args.max_sim_seconds,
                            watchdog_window=args.watchdog_window)
    _emit(result, args.output, args.stat, args.compress)
    print(population_report(result))
    return 0


# -- sweep / csv --------------------------------------------------------------


def _add_sweep(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("spec", type=Path,
                        help="sweep specification YAML file"
                        " (see docs/SWEEPS.md)")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes (1 = run inline; per-cell"
                        " results are byte-identical either way)")
    parser.add_argument("--cache-dir", type=Path,
                        default=Path(DEFAULT_CACHE_DIR),
                        help="result cache directory"
                        f" (default: {DEFAULT_CACHE_DIR})")
    parser.add_argument("--no-cache", action="store_true",
                        help="recompute every cell, touch no cache")
    parser.add_argument("--output-dir", type=Path, default=None,
                        help="write per-cell results JSON and the sweep"
                        " summary here")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-cell progress lines")


def _sweep(args: argparse.Namespace) -> int:
    """``python -m repro sweep``: stream progress, print the table."""
    from repro.obs.report import sweep_report
    from repro.sweep.cache import ResultCache
    from repro.sweep.runner import run_sweep
    from repro.sweep.spec import load_sweep

    spec = load_sweep(args.spec.read_text())
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    total = len(spec.cells())
    print(f"sweep {args.spec}: {spec.shape()}; workers={args.workers};"
          f" cache={'off' if cache is None else cache.directory}",
          file=sys.stderr)
    finished = 0

    def progress(event) -> None:
        nonlocal finished
        if args.quiet or event.kind in ("queued", "running"):
            return
        finished += 1
        wall = (f"{event.wall_seconds:6.1f}s"
                if event.wall_seconds is not None else "       ")
        detail = f"  ({event.detail})" if event.detail else ""
        print(f"[{finished:{len(str(total))}d}/{total}]"
              f" {event.kind:6s} {event.cell.label}  {wall}{detail}",
              file=sys.stderr)

    sweep = run_sweep(spec, workers=args.workers, cache=cache,
                      progress=progress)
    if args.output_dir is not None:
        args.output_dir.mkdir(parents=True, exist_ok=True)
        summary = []
        for outcome in sweep.outcomes:
            cell = outcome.cell
            name = (f"{cell.index:03d}-{cell.chain}-{cell.configuration.name}"
                    f"-{cell.workload}-seed{cell.seed}.json")
            if outcome.result_json is not None:
                (args.output_dir / name).write_text(outcome.result_json)
            summary.append({
                "index": cell.index,
                "label": cell.label,
                "status": outcome.status,
                "cached": outcome.cached,
                "wall_seconds": round(outcome.wall_seconds, 3),
                "file": name if outcome.result_json is not None else None,
                "failure": (None if outcome.failure is None
                            else str(outcome.failure)),
            })
        (args.output_dir / "sweep-summary.json").write_text(
            json.dumps({"shape": spec.shape(),
                        "metrics": sweep.metrics,
                        "cells": summary}, indent=2))
        print(f"wrote {args.output_dir}/sweep-summary.json", file=sys.stderr)
    print(sweep_report(sweep))
    crashed = [o for o in sweep.outcomes if o.result_json is None]
    return 1 if crashed else 0


def _add_csv(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("results", type=Path)


def _csv(args: argparse.Namespace) -> int:
    from repro.analysis.summary import transactions_to_csv
    from repro.core.results import BenchmarkResult

    if args.results.suffix == ".gz":
        import gzip
        with gzip.open(args.results, "rt") as handle:
            text = handle.read()
    else:
        text = args.results.read_text()
    result = BenchmarkResult.from_json(text)
    sys.stdout.write(transactions_to_csv(result))
    return 0


# -- robustness demos ---------------------------------------------------------


def _add_faults(parser: argparse.ArgumentParser) -> None:
    _add_common(parser)
    parser.add_argument("--crash-at", type=float, default=30.0,
                        help="when the validators fail (seconds)")
    parser.add_argument("--recover-at", type=float, default=60.0,
                        help="when they rejoin (seconds)")
    parser.add_argument("--rate", type=float, default=200.0,
                        help="offered load in TPS")
    parser.add_argument("--runtime", type=float, default=90.0,
                        help="workload duration (seconds)")


def _faults(args: argparse.Namespace) -> int:
    from repro.analysis.summary import degradation_report
    from repro.core.runner import run_benchmark
    from repro.sim.deployment import get_configuration
    from repro.sim.faults import events_from_dicts

    config = get_configuration(args.configuration)
    # f+1 crashed validators deny the n-f commit quorum: the chain
    # stalls until they recover (the availability-dip demonstration)
    victims = list(range((config.node_count - 1) // 3 + 1))
    faults = events_from_dicts([
        {"at": args.crash_at, "kind": "crash", "nodes": victims},
        {"at": args.recover_at, "kind": "recover", "nodes": victims},
    ])
    result = run_benchmark(args.chain, args.configuration,
                           _transfer_spec(args, args.runtime, faults=faults),
                           workload_name="crash-and-recover",
                           scale=args.scale, seed=args.seed,
                           max_sim_seconds=args.max_sim_seconds,
                           watchdog_window=args.watchdog_window)
    _emit(result, args.output, args.stat, args.compress)
    print(degradation_report(result))
    return 0


def _add_overload(parser: argparse.ArgumentParser) -> None:
    _add_common(parser)
    parser.add_argument("--rate", type=float, default=10_000.0,
                        help="offered load in TPS (§6.3 uses a constant"
                        " 10,000 TPS)")
    parser.add_argument("--runtime", type=float, default=90.0,
                        help="workload duration (seconds)")
    parser.add_argument("--drain", type=float, default=120.0,
                        help="post-load drain budget (seconds)")


def _overload(args: argparse.Namespace) -> int:
    from repro.analysis.summary import overload_report
    from repro.core.runner import run_benchmark

    result = run_benchmark(args.chain, args.configuration,
                           _transfer_spec(args, args.runtime),
                           workload_name="overload",
                           scale=args.scale, seed=args.seed,
                           drain=args.drain,
                           max_sim_seconds=args.max_sim_seconds,
                           watchdog_window=args.watchdog_window)
    _emit(result, args.output, args.stat, args.compress)
    print(overload_report(result))
    return 0


def _add_dos(parser: argparse.ArgumentParser) -> None:
    from repro.blockchains.registry import CHAIN_NAMES

    parser.add_argument("dos_chain", metavar="chain", choices=CHAIN_NAMES)
    _add_chain_setup(parser)
    parser.add_argument("--accounts", type=int, default=2_000)
    parser.add_argument("--rate", type=float, default=200.0,
                        help="honest offered load in TPS")
    parser.add_argument("--runtime", type=float, default=60.0,
                        help="workload duration (seconds)")
    parser.add_argument("--budget", type=int, default=50_000_000,
                        help="attacker fee budget (fee units)")
    parser.add_argument("--attack-rate", type=float, default=2_000.0,
                        help="attack transactions per second")
    parser.add_argument("--bid-multiplier", type=float, default=3.0,
                        help="attack bid over the honest fee suggestion")
    parser.add_argument("--fee-bump", type=float, default=1.25,
                        help="honest clients multiply their price by this"
                        " on each retry")
    parser.add_argument("--output", type=Path, default=None,
                        help="write the attacked run's results JSON here")


def _dos(args: argparse.Namespace) -> int:
    from repro.analysis.summary import dos_report
    from repro.core.primary import Primary
    from repro.econ.fees import FeeSpec
    from repro.sim.dos import AdversarySpec

    fees = FeeSpec(fee_bump=args.fee_bump)
    adversary = AdversarySpec(budget=args.budget,
                              rate=args.attack_rate,
                              bid_multiplier=args.bid_multiplier)

    def dos_run(with_adversary: bool) -> BenchmarkResult:
        spec = _transfer_spec(
            args, args.runtime, fees=fees,
            adversary=adversary if with_adversary else None)
        primary = Primary(args.dos_chain, args.configuration,
                          scale=args.scale, seed=args.seed)
        return primary.run(spec, workload_name="dos")

    print(f"baseline: {args.dos_chain} at {args.rate:g} TPS honest"
          f" load, fee market on, no attack", file=sys.stderr)
    baseline = dos_run(with_adversary=False)
    print(f"attack:   +{args.attack_rate:g} TPS adversary, budget"
          f" {args.budget:,}, bidding x{args.bid_multiplier:g}",
          file=sys.stderr)
    attacked = dos_run(with_adversary=True)
    if args.output is not None:
        args.output.write_text(attacked.to_json())
        print(f"wrote {args.output}", file=sys.stderr)
    print(dos_report(baseline, attacked))
    return 0


def _add_byzantine(parser: argparse.ArgumentParser) -> None:
    from repro.blockchains.registry import CHAIN_NAMES
    from repro.consensus.testbed import PROTOCOLS

    parser.add_argument("byz_chain", metavar="chain",
                        choices=sorted(set(CHAIN_NAMES) | set(PROTOCOLS)),
                        help="benchmark chain (or a protocol name directly:"
                        " hotstuff, ibft, tower, ...)")
    parser.add_argument("--equivocators", type=int, default=1,
                        help="how many replicas misbehave (indices 0..k-1)")
    parser.add_argument("--behavior", default="equivocate",
                        choices=("equivocate", "silence", "delay",
                                 "censor"),
                        help="what the adversarial replicas do")
    parser.add_argument("--nodes", type=int, default=None,
                        help="cluster size (default: the protocol"
                        " recipe's)")
    parser.add_argument("--start", type=float, default=0.0,
                        help="attack window start (seconds)")
    parser.add_argument("--stop", type=float, default=None,
                        help="attack window end (default: whole run)")
    parser.add_argument("--until", type=float, default=None,
                        help="simulated horizon (default: the protocol"
                        " recipe's)")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--report", type=Path, default=None,
                        help="write the auditor's forensic report JSON"
                        " here")


def _byzantine(args: argparse.Namespace) -> int:
    """``python -m repro byzantine``: adversary demo + safety audit."""
    from repro.consensus.testbed import (
        PROTOCOLS,
        protocol_for_chain,
        run_audited,
    )
    from repro.sim.byzantine import (
        ByzantineSchedule,
        CensorLeader,
        DelayReorder,
        Equivocate,
        Silence,
    )

    protocol = (args.byz_chain if args.byz_chain in PROTOCOLS
                else protocol_for_chain(args.byz_chain))
    recipe = PROTOCOLS[protocol]
    n = recipe.default_n if args.nodes is None else args.nodes
    until = recipe.until if args.until is None else args.until
    stop = until if args.stop is None else args.stop
    kinds = {"equivocate": Equivocate, "silence": Silence,
             "delay": DelayReorder, "censor": CensorLeader}
    kind = kinds[args.behavior]
    count = max(0, min(args.equivocators, n))
    schedule = ByzantineSchedule(tuple(
        kind(node=node, start=args.start, stop=stop)
        for node in range(count)))
    schedule.validate(n)
    f = recipe.byzantine_f(n)
    print(f"protocol: {protocol} (chain argument {args.byz_chain}),"
          f" n={n}, tolerates f={f}")
    print(f"adversary: {count} x {args.behavior} on replicas"
          f" {sorted(schedule.nodes())},"
          f" window [{args.start:g}, {stop:g})")
    harness, auditor = run_audited(protocol, schedule, n=n,
                                   seed=args.seed, until=until)
    byzantine = set(schedule.nodes())
    honest = [d for d in harness.decisions if d.node not in byzantine]
    stats = harness.stats()
    interventions = ", ".join(
        f"{name}={value}" for name, value in sorted(stats.items())
        if name.startswith("byzantine_")) or "none"
    print(f"interventions: {interventions}")
    print(f"decisions: total={len(harness.decisions)}"
          f" honest={len(honest)}")
    grade = auditor.liveness_grade(window=(args.start, stop), until=until)
    print(f"liveness: {grade}")
    print(f"safety: {auditor.verdict}")
    for line in auditor.forensic_lines():
        print(f"  {line}")
    if args.report is not None:
        args.report.write_text(json.dumps(auditor.report(), indent=2))
        print(f"wrote {args.report}", file=sys.stderr)
    return 0 if auditor.verdict == "ok" else 1


# -- observability and listings -----------------------------------------------


def _add_trace(parser: argparse.ArgumentParser) -> None:
    from repro.blockchains.registry import CHAIN_NAMES

    parser.add_argument("trace_chain", metavar="chain", choices=CHAIN_NAMES)
    _add_chain_setup(parser)
    parser.set_defaults(configuration="datacenter")
    parser.add_argument("--duration", type=float, default=30.0,
                        help="workload duration (seconds)")
    parser.add_argument("--rate", type=float, default=200.0,
                        help="offered load in TPS")
    parser.add_argument("--accounts", type=int, default=2_000)
    parser.add_argument("--sample-period", type=float, default=1.0,
                        help="metrics sampling period on the simulated"
                        " clock (0 disables the sampler)")
    parser.add_argument("--top", type=int, default=10,
                        help="engine hotspots to print")
    parser.add_argument("--chrome-trace", type=Path, default=None,
                        help="write a Chrome trace_event JSON here"
                        " (open in chrome://tracing or Perfetto)")
    parser.add_argument("--spans-jsonl", type=Path, default=None,
                        help="write raw span records as JSONL here")
    parser.add_argument("--prometheus", type=Path, default=None,
                        help="write a Prometheus-style metrics dump here")
    parser.add_argument("--output", type=Path, default=None,
                        help="write the full results JSON here")


def _trace(args: argparse.Namespace) -> int:
    from repro.core.primary import Primary
    from repro.obs.exporters import (
        write_chrome_trace,
        write_prometheus,
        write_spans_jsonl,
    )
    from repro.obs.metrics import ObservabilityOptions
    from repro.obs.report import trace_report

    observe = ObservabilityOptions(trace=True, profile=True,
                                   sample_period=args.sample_period)
    primary = Primary(args.trace_chain, args.configuration,
                      scale=args.scale, seed=args.seed, observe=observe)
    result = primary.run(_transfer_spec(args, args.duration),
                         workload_name="trace")
    print(trace_report(primary.tracer, primary.profiler, top=args.top))
    if args.chrome_trace is not None:
        write_chrome_trace(primary.tracer, args.chrome_trace,
                           profiler=primary.profiler)
        print(f"wrote {args.chrome_trace}", file=sys.stderr)
    if args.spans_jsonl is not None:
        write_spans_jsonl(primary.tracer, args.spans_jsonl)
        print(f"wrote {args.spans_jsonl}", file=sys.stderr)
    if args.prometheus is not None:
        write_prometheus(primary.network.metrics, args.prometheus,
                         labels={"chain": args.trace_chain,
                                 "configuration": args.configuration})
        print(f"wrote {args.prometheus}", file=sys.stderr)
    if args.output is not None:
        args.output.write_text(result.to_json())
        print(f"wrote {args.output}", file=sys.stderr)
    return 0


def _chains(args: argparse.Namespace) -> int:
    from repro.blockchains.registry import characteristics_table

    for row in characteristics_table():
        print(row)
    return 0


def _workloads(args: argparse.Namespace) -> int:
    from repro.workloads.registry import workload_registry

    for name, trace in sorted(workload_registry().items()):
        print(f"{name:18s} {trace.description}")
    return 0


def _no_arguments(parser: argparse.ArgumentParser) -> None:
    pass


Handler = Callable[[argparse.Namespace], int]

#: subcommand -> (help, add its arguments, run it). Both import what they
#: use, so a command loads only its own stack, and ``--help`` none.
COMMANDS: Dict[str, Tuple[str, Callable[[argparse.ArgumentParser], None],
                          Handler]] = {
    "run": ("run a YAML workload specification", _add_run, _run),
    "suite": ("run a built-in workload trace", _add_suite, _suite),
    "population": (
        "simulate an aggregate client population: millions of users as"
        " batched arrival processes plus a tracked cohort with"
        " per-transaction fidelity (see docs/SCALE.md)",
        _add_population, _population),
    "sweep": (
        "execute an experiment matrix (chains x configurations x workloads"
        " x seeds x scales x populations) over a worker pool, replaying"
        " unchanged cells from the result cache", _add_sweep, _sweep),
    "csv": ("convert a results JSON file to per-transaction CSV",
            _add_csv, _csv),
    "faults": (
        "crash-and-recover robustness demo with a fault schedule (crashes"
        " f+1 validators, then recovers them)", _add_faults, _faults),
    "overload": (
        "crash-under-load robustness demo: sustained saturation exhausts"
        " node memory (§6.3) — Solana-model validators OOM-crash,"
        " Diem-model consensus stalls, survivors shed load",
        _add_overload, _overload),
    "dos": (
        "economic DoS demo: a budget-constrained adversary bids for"
        " blockspace against honest traffic; reports what delaying honest"
        " transactions cost in fee units", _add_dos, _dos),
    "byzantine": (
        "Byzantine adversary demo: runs the chain's message-level"
        " consensus protocol with adversarial replicas under a"
        " SafetyAuditor; exits nonzero on a safety violation",
        _add_byzantine, _byzantine),
    "trace": (
        "run a short workload with lifecycle tracing and engine"
        " profiling; print the per-phase latency breakdown",
        _add_trace, _trace),
    "chains": ("list the evaluated blockchains", _no_arguments, _chains),
    "workloads": ("list the built-in workloads", _no_arguments, _workloads),
}


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = argparse.ArgumentParser(
        prog="repro", description="DIABLO blockchain benchmarks (simulated)")
    commands = parser.add_subparsers(dest="command", required=True)
    # the top-level parser takes no option but --help, so the first other
    # word names the command; only that command's arguments are built
    chosen = next((word for word in argv if not word.startswith("-")), None)
    for name, (help_text, add_arguments, _) in COMMANDS.items():
        command = commands.add_parser(name, help=help_text)
        if name == chosen:
            add_arguments(command)
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command][2](args)
    except ConfigurationError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")


if __name__ == "__main__":
    raise SystemExit(main())
