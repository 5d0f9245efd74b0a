"""Span tracer for the traced pass.

Wraps *public* callables of ``repro`` at class (or module) level from the
benchmark's side: nothing under ``src/`` knows it is being traced, and
the executed code path is the one the untraced passes run (no
``LifecycleTracer`` is attached, so the batched fast lanes stay on).

Each span records name, start, end, parent and one count taken at the
same boundary (e.g. how many transactions an ``encode_batch`` call
returned). Spans stay in memory in parallel arrays (28 bytes per span — a
``consensus-msg`` pass records over a million) and are folded per span
name after the timed region ends: that table goes to ``--out`` and the
per-layer metrics are read off it. A layer's self-time is its
spans' duration minus the part their child spans cover, so the self-times
of all spans add up to the root span exactly.
"""

from __future__ import annotations

import importlib
from array import array
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

ROOT = "wall"

#: (module, class or None for a module-level function, attribute,
#: count taken from the return value or None to count calls)
TARGETS: Tuple[Tuple[str, Optional[str], str, Optional[Callable[[Any], int]]],
               ...] = (
    ("repro.core.interface", "SimConnector", "encode_batch", len),
    ("repro.core.interface", "SimConnector", "trigger_batch", None),
    ("repro.core.interface", "SimConnector", "trigger_aggregate", None),
    ("repro.core.population", "AggregateArrivals", "count_at", None),
    ("repro.crypto.signing", "PrecomputedSigner", "__call__", None),
    ("repro.blockchains.base", "BlockchainNetwork", "submit", None),
    ("repro.blockchains.base", "BlockchainNetwork", "submit_batch", None),
    ("repro.blockchains.base", "BlockchainNetwork", "create_accounts", None),
    ("repro.blockchains.base", "BlockchainNetwork", "deploy_contract", None),
    ("repro.chain.admission", "AdmissionController", "submit", None),
    ("repro.chain.admission", "AdmissionController", "drain", None),
    ("repro.chain.mempool", "Mempool", "add", None),
    ("repro.chain.mempool", "Mempool", "try_add", None),
    ("repro.chain.mempool", "Mempool", "pop_batch", len),
    ("repro.chain.mempool", "Mempool", "drop_expired", len),
    ("repro.vm.base", "VirtualMachine", "execute",
     lambda receipt: receipt.gas_used),
    ("repro.consensus.models", "ConsensusPerfModel", "decide", None),
    ("repro.chain.ledger", "Ledger", "append", None),
    ("repro.sim.engine", "Engine", "run", None),
    ("repro.sim.network", "Network", "send", None),
    ("repro.sim.network", "Network", "broadcast", None),
    ("repro.consensus.base", "ConsensusHarness", "route", None),
    ("repro.consensus.base", "Replica", "on_message", None),
    ("repro.core.results", "TransactionRecord", "from_transaction", None),
    ("repro.core.results", "BenchmarkResult", "summary", None),
    ("repro.core.results", "BenchmarkResult", "to_json", len),
    ("repro.core.results", "BenchmarkResult", "from_json", None),
    ("repro.core.primary", "Primary", "run", None),
    # run_sweep binds cell_key by name at import; code_version is looked
    # up in its own module by cell_key_fields
    ("repro.sweep.runner", None, "cell_key", None),
    ("repro.sweep.cache", None, "code_version", None),
    ("repro.sweep.cache", "ResultCache", "get", None),
    ("repro.sweep.cache", "ResultCache", "put", None),
)

#: per-layer ``*_s`` metric -> the span names whose self-time it sums.
#: Every span name appears exactly once, so these metrics partition the
#: root span (``Engine.run`` is split by parent in :meth:`Tracer.fold`).
SELF_TIME: Dict[str, Tuple[str, ...]] = {
    "emission.encode_s": ("SimConnector.encode_batch",),
    "emission.trigger_s": ("SimConnector.trigger_batch",
                           "SimConnector.trigger_aggregate"),
    "emission.arrivals_s": ("AggregateArrivals.count_at",),
    "crypto.sign_s": ("PrecomputedSigner.__call__",),
    "admission.submit_s": ("BlockchainNetwork.submit",
                           "BlockchainNetwork.submit_batch"),
    "admission.controller_s": ("AdmissionController.submit",
                               "AdmissionController.drain"),
    "mempool.add_s": ("Mempool.add", "Mempool.try_add"),
    "mempool.pop_s": ("Mempool.pop_batch",),
    "mempool.expire_s": ("Mempool.drop_expired",),
    "vm.execute_s": ("VirtualMachine.execute",),
    "consensus_model.decide_s": ("ConsensusPerfModel.decide",),
    "ledger.append_s": ("Ledger.append",),
    "pipeline.self_s": ("Engine.run<Primary.run",),
    "engine.self_s": ("Engine.run",),
    "network.send_s": ("Network.send", "Network.broadcast"),
    "consensus_msg.route_s": ("ConsensusHarness.route",),
    "consensus_msg.on_message_s": ("Replica.on_message",),
    "results.record_s": ("TransactionRecord.from_transaction",),
    "results.summary_s": ("BenchmarkResult.summary",),
    "results.to_json_s": ("BenchmarkResult.to_json",),
    "results.from_json_s": ("BenchmarkResult.from_json",),
    "harness.provision_s": ("BlockchainNetwork.create_accounts",
                            "BlockchainNetwork.deploy_contract"),
    "harness.run_self_s": ("Primary.run", ROOT),
    "sweep.code_version_s": ("code_version",),
    "sweep.key_s": ("cell_key",),
    "sweep.cache_put_s": ("ResultCache.put",),
    "sweep.cache_get_s": ("ResultCache.get",),
}


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.count = array("q")
        self._current = [-1]     # index of the open span, in a cell
        self._patched: List[Tuple[Any, str, Any]] = []

    def wrap(self, fn: Callable, name: str,
             count_of: Optional[Callable[[Any], int]] = None) -> Callable:
        """*fn* with a span named *name* recorded around every call."""
        self.names.append(name)
        name_id = len(self.names) - 1
        names, parents = self.name, self.parent
        starts, ends, counts = self.start, self.end, self.count
        current = self._current

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(names)
            parent = current[0]
            current[0] = index
            names.append(name_id)
            parents.append(parent)
            ends.append(0.0)
            counts.append(0)    # stays 0 if the call raises
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                current[0] = parent
            counts[index] = 1 if count_of is None else count_of(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target, and every subclass override of it."""
        for module_name, class_name, attr, count_of in TARGETS:
            module = importlib.import_module(module_name)
            if class_name is None:
                self._patch(module, attr, attr, count_of)
                continue
            owners = [getattr(module, class_name)]
            for owner in owners:    # grows while iterated: the subclass tree
                owners.extend(sub for sub in owner.__subclasses__()
                              if sub not in owners)
                if attr in vars(owner):
                    self._patch(owner, attr, f"{class_name}.{attr}", count_of)

    def _patch(self, owner: Any, attr: str, name: str,
               count_of: Optional[Callable[[Any], int]]) -> None:
        original = vars(owner)[attr]
        if isinstance(original, staticmethod):
            replacement: Any = staticmethod(
                self.wrap(original.__func__, name, count_of))
        else:
            replacement = self.wrap(original, name, count_of)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Put every wrapped attribute back."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- folding ----------------------------------------------------------------

    def fold(self, scale: float = 1.0) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, summed count, total and self seconds.

        *scale* turns raw seconds into seconds at the reference speed
        (``probe.py``); the probe's chunks fall into the open span, in
        proportion to its time because they come on a timer.

        ``Engine.run`` spans directly under ``Primary.run`` are keyed
        ``Engine.run<Primary.run``: in a chain run the engine's self-time
        is the private block-pipeline glue, not calendar work.
        """
        durations = [(end - start) * scale
                     for start, end in zip(self.start, self.end)]
        self_times = list(durations)
        for duration, parent in zip(durations, self.parent):
            if parent >= 0:
                self_times[parent] -= duration
        keys = list(self.names)
        engine_run = _index(keys, "Engine.run")
        primary_run = _index(keys, "Primary.run")
        keys.append("Engine.run<Primary.run")
        in_primary = len(keys) - 1
        folded = {key: {"calls": 0, "count": 0, "total_s": 0.0, "self_s": 0.0}
                  for key in keys}
        rows = [folded[key] for key in keys]
        for index, name_id in enumerate(self.name):
            if name_id == engine_run:
                parent = self.parent[index]
                if parent >= 0 and self.name[parent] == primary_run:
                    name_id = in_primary
            row = rows[name_id]
            row["calls"] += 1
            row["count"] += self.count[index]
            row["total_s"] += durations[index]
            row["self_s"] += self_times[index]
        return folded


def _index(names: List[str], name: str) -> int:
    return names.index(name) if name in names else -1


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(folded: Dict[str, Dict[str, float]],
                  counted: Dict[str, float]) -> Dict[str, float]:
    """The span-derived per-layer metrics (times in seconds, counts).

    *counted* holds the pass's values read from program state (events,
    commits, decisions): the denominators of the per-unit costs.
    """
    empty = {"calls": 0, "count": 0, "total_s": 0.0, "self_s": 0.0}

    def span(name: str) -> Dict[str, float]:
        return folded.get(name, empty)

    m: Dict[str, float] = {
        metric: sum(span(name)["self_s"] for name in names)
        for metric, names in SELF_TIME.items()}
    encode = span("SimConnector.encode_batch")
    admit = span("AdmissionController.submit")
    add = span("Mempool.add")
    pop = span("Mempool.pop_batch")
    execute = span("VirtualMachine.execute")
    records = span("TransactionRecord.from_transaction")["calls"]
    m.update({
        "emission.encode_calls": encode["calls"],
        "emission.tx_encoded": encode["count"],
        "emission.us_per_tx": 1e6 * _ratio(
            m["emission.encode_s"] + m["emission.trigger_s"]
            + m["emission.arrivals_s"] + m["crypto.sign_s"], encode["count"]),
        "crypto.sign_calls": span("PrecomputedSigner.__call__")["calls"],
        # a span's count stays 0 when the call raises: rejections
        "admission.attempts": admit["calls"],
        "admission.accepted": admit["count"],
        "admission.accept_ratio": _ratio(admit["count"], admit["calls"]),
        "mempool.add_calls": add["calls"],
        "mempool.rejected": add["calls"] - add["count"],
        "mempool.pop_calls": pop["calls"],
        "mempool.tx_popped": pop["count"],
        "vm.execute_calls": execute["calls"],
        "vm.us_per_call": 1e6 * _ratio(m["vm.execute_s"], execute["calls"]),
        "vm.gas_used": execute["count"],
        "consensus_model.decide_calls":
            span("ConsensusPerfModel.decide")["calls"],
        "ledger.blocks": span("Ledger.append")["calls"],
        "pipeline.us_per_committed_tx": 1e6 * _ratio(
            m["pipeline.self_s"], counted["sim.committed"]),
        "engine.run_s": (span("Engine.run")["total_s"]
                         + span("Engine.run<Primary.run")["total_s"]),
        "consensus_msg.msgs_per_decision": _ratio(
            counted.get("consensus_msg.messages_routed", 0),
            counted.get("consensus_msg.decisions", 0)),
        "results.records": records,
        "results.json_mb": span("BenchmarkResult.to_json")["count"] / 1e6,
        "results.us_per_record": 1e6 * _ratio(
            m["results.record_s"] + m["results.summary_s"]
            + m["results.to_json_s"], records),
        "trace.spans": sum(row["calls"] for row in folded.values()),
    })
    m["engine.us_per_event"] = 1e6 * _ratio(
        m["engine.run_s"], counted.get("engine.events", 0))
    return m
