"""Command-line interface mirroring the DIABLO artifact's entry points.

The real tool is invoked as::

    diablo primary -vvv --port=5000 --output=results.json --compress \
        --stat 10 setup.yaml workload.yaml

Here the "setup" is a chain + deployment-configuration pair and the
workload is the same YAML dialect::

    python -m repro run --chain quorum --configuration testnet \
        --output results.json workload.yaml

    python -m repro run --chain solana --configuration testnet \
        --scale 0.05 examples/specs/overload.yaml

    python -m repro suite --chain solana --configuration consortium \
        --workload dapp-web

    python -m repro csv results.json > results.csv

    python -m repro trace ethereum examples/specs/transfer.yaml \
        --chrome-trace out.json

    python -m repro sweep experiments.yaml --workers 4

Each command's ``--help`` says what it does. A chain run reads its
workload from a spec file: the robustness and population scenarios
are the ones under ``examples/specs/``. The simulator's own host cost
is measured from outside the package, by ``python3 perfbench/run.py``
(docs/BENCHMARKS.md).
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
    """Write the results JSON, print the summary, then narrate each
    fault, overload or population section the result carries."""
    from repro.analysis.summary import (
        degradation_report,
        overload_report,
        population_report,
    )

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
    for section, report in (("fault_events", degradation_report),
                            ("overload_events", overload_report),
                            ("population", population_report)):
        if getattr(result, section):
            print(report(result))


# -- run / suite ---------------------------------------------------------------


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
    parser.add_argument("--accounts", type=int, default=2_000)
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
        # one document at a time: with a cache, each is read from its entry
        for outcome in sweep.outcomes:
            cell = outcome.cell
            name = (f"{cell.index:03d}-{cell.chain}-{cell.configuration.name}"
                    f"-{cell.workload}-seed{cell.seed}.json")
            if outcome.summary is not None:
                (args.output_dir / name).write_text(outcome.result_json)
            summary.append({
                "index": cell.index,
                "label": cell.label,
                "status": outcome.status,
                "cached": outcome.cached,
                "wall_seconds": round(outcome.wall_seconds, 3),
                "file": name if outcome.summary is not None else None,
                "failure": (None if outcome.failure is None
                            else str(outcome.failure)),
            })
        (args.output_dir / "sweep-summary.json").write_text(
            json.dumps({"shape": spec.shape(),
                        "metrics": sweep.metrics,
                        "cells": summary}, indent=2))
        print(f"wrote {args.output_dir}/sweep-summary.json", file=sys.stderr)
    print(sweep_report(sweep))
    crashed = [o for o in sweep.outcomes if o.summary is None]
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
    parser.add_argument("workload", type=Path,
                        help="workload specification YAML file")
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
    from repro.core.spec import load_spec
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
    result = primary.run(load_spec(args.workload.read_text()),
                         workload_name=args.workload.stem)
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
    "run": ("run a YAML workload specification (the robustness and"
            " population scenarios are the ones under examples/specs/)",
            _add_run, _run),
    "suite": ("run a built-in workload trace", _add_suite, _suite),
    "sweep": (
        "execute an experiment matrix (chains x configurations x workloads"
        " x seeds x scales x populations) over a worker pool, replaying"
        " unchanged cells from the result cache", _add_sweep, _sweep),
    "csv": ("convert a results JSON file to per-transaction CSV",
            _add_csv, _csv),
    "byzantine": (
        "Byzantine adversary demo: runs the chain's message-level"
        " consensus protocol with adversarial replicas under a"
        " SafetyAuditor; exits nonzero on a safety violation",
        _add_byzantine, _byzantine),
    "trace": (
        "run a YAML workload specification with lifecycle tracing and"
        " engine profiling; print the per-phase latency breakdown",
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
