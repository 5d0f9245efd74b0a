"""One pass of one workload in a fresh process (launched by ``run.py``).

Prints one JSON object as its last line of output: host timings and RSS
of this process, the checked outcome of the workload, and the per-layer
values this pass can provide — the untraced ones always, the span-derived
ones (and the per-name span table) when ``--traced``. Every host time is
in seconds at the reference speed (``probe.py``); what the clock said is
``host.wall_raw_s``/``host.setup_raw_s``.
"""

from __future__ import annotations

import argparse
import json
import resource
import time
from time import perf_counter
from typing import Any, Dict

from probe import SpeedProbe


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", type=float, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.time() in the parent just before launch")
    parser.add_argument("--cache", help="ResultCache directory (sweeps)")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()

    probe = SpeedProbe()
    probe.start()
    start = perf_counter()
    import repro  # noqa: F401 — timed: the import a user pays
    from workloads import WORKLOADS, peak_rss_mb
    import_raw_s = perf_counter() - start
    rss_after_import = peak_rss_mb()

    tracer = None
    if args.traced:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    run = WORKLOADS[args.workload](args.seed, args.size, args.cache)
    ready = probe.mark()
    setup_raw_s = time.time() - args.spawned_at
    # interpreter start-up ran before the probe: it is scaled, not sampled
    in_chunks, setup_speed = probe.region(0, ready)
    setup_scale = (1.0 - in_chunks / setup_raw_s) * setup_speed
    if args.setup_only:
        probe.stop()
        print(json.dumps({"setup_s": setup_raw_s * setup_scale}))
        return

    timed = run.run if tracer is None else tracer.wrap(run.run, spans.ROOT)
    start = perf_counter()
    timed()
    end = perf_counter()
    probe.stop()
    if tracer is not None:
        tracer.uninstall()
    # before outcome(): its digests and parsing are the benchmark's cost
    rss_after_results = peak_rss_mb()
    peak = max(rss_after_results, peak_rss_mb(resource.RUSAGE_CHILDREN))
    outcome = run.outcome()

    wall_raw_s = end - start
    in_chunks, speed = probe.region(ready, probe.mark())
    scale = (1.0 - in_chunks / wall_raw_s) * speed
    layers: Dict[str, Any] = {
        "phase.run_s": (run.run_end - start) * scale,
        "phase.results_s": (end - run.run_end) * scale,
        "harness.import_s": import_raw_s * setup_scale,
        "harness.primary_init_s": run.init_s * setup_scale,
        "host.speed": speed,
        "host.wall_raw_s": wall_raw_s,
        "host.setup_raw_s": setup_raw_s,
        "mem.rss_after_import_mb": rss_after_import,
        "mem.rss_after_run_mb": run.rss_after_run_mb,
        "mem.rss_after_results_mb": rss_after_results,
        "mem.kb_per_tx": (peak - rss_after_import) * 1024.0 / outcome["tx"],
        **outcome["sim"],
        **outcome["counts"],
        **{name: seconds * scale
           for name, seconds in outcome.get("host_s", {}).items()},
    }
    folded = {}
    if tracer is not None:
        folded = tracer.fold(scale)
        layers.update(spans.layer_metrics(folded, layers))
    print(json.dumps({
        "setup_s": setup_raw_s * setup_scale,
        "wall_s": wall_raw_s * scale,
        "peak_rss_mb": peak,
        "tx": outcome["tx"],
        "ops": outcome["ops"],
        "failures": outcome["failures"],
        "digest": outcome["digest"],
        "sim": outcome["sim"],
        "layers": layers,
        "spans": folded,
    }))


if __name__ == "__main__":
    main()
