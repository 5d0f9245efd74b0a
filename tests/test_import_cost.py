"""What each entry point loads, checked in a fresh interpreter.

docs/ARCHITECTURE.md's import rule: a package init imports nothing, a
feature module is imported where its feature is attached, and an
annotation-only import waits under ``if TYPE_CHECKING:``. Each case runs
an entry point in its own process (this one has imported everything) and
fails on a module the entry point has no use for.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Iterable, List, Set

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: the message-level consensus stack, which no chain run drives
MESSAGE_LEVEL = ("repro.consensus.base", "repro.consensus.testbed",
                 "repro.consensus.auditor", "repro.consensus.algorand",
                 "repro.consensus.avalanche", "repro.consensus.clique",
                 "repro.consensus.hotstuff", "repro.consensus.ibft",
                 "repro.consensus.raft", "repro.consensus.towerbft")
#: what a chain run without faults, fees, an adversary, client retries or
#: a tracer skips
PLAIN_RUN_SKIPS = ("yaml", "multiprocessing", "repro.sweep",
                   *MESSAGE_LEVEL, "repro.sim.faults", "repro.sim.byzantine",
                   "repro.sim.dos", "repro.econ.market",
                   "repro.blockchains.retry", "repro.obs.trace",
                   "repro.obs.report", "repro.obs.exporters",
                   "repro.obs.profiler")

PLAIN_RUN = """
from repro.core.primary import Primary
from repro.core.spec import AccountSample, LoadSchedule, TransferSpec, \\
    simple_spec
spec = simple_spec(TransferSpec(AccountSample(50)),
                   LoadSchedule.constant(20, 5))
Primary("diem", "testnet", scale=0.05, seed=1).run(spec, drain=5)
"""

HELP = """
import runpy
sys.argv = ["repro", "--help"]
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert exc.code == 0, exc.code
"""


def loaded(code: str) -> Set[str]:
    """``sys.modules`` after *code* ran in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    probe = (f"import sys\n{code}\nimport json\n"
             "print(json.dumps(sorted(sys.modules)))")
    run = subprocess.run([sys.executable, "-c", probe], env=env, timeout=120,
                         capture_output=True, text=True, check=True)
    return set(json.loads(run.stdout.splitlines()[-1]))


def within(modules: Set[str], packages: Iterable[str]) -> List[str]:
    """The modules of *modules* that are one of *packages* or inside one."""
    return sorted(module for module in modules
                  if any(module == package or module.startswith(package + ".")
                         for package in packages))


def test_import_repro_loads_no_submodule():
    assert within(loaded("import repro"), ["repro"]) == ["repro"]


def test_a_package_init_imports_nothing():
    """Every package but ``repro.sweep``, which loads whole (a sweep is
    specified to be run)."""
    inits = (ROOT / "src" / "repro").glob("*/__init__.py")
    packages = sorted(f"repro.{path.parent.name}" for path in inits
                      if path.parent.name != "sweep")
    modules = loaded("\n".join(f"import {package}" for package in packages))
    assert within(modules, ["repro"]) == ["repro", *packages]


@pytest.mark.parametrize("code,stack", [
    ("import repro.blockchains", {"repro.blockchains"}),
    (PLAIN_RUN, {"repro.blockchains.base", "repro.core.primary",
                 "repro.consensus.models", "repro.obs.metrics"}),
], ids=["import repro.blockchains", "plain diem run"])
def test_a_plain_chain_run_loads_no_feature_it_does_not_use(code, stack):
    modules = loaded(code)
    assert stack <= modules        # guard the guard: the code ran
    assert within(modules, PLAIN_RUN_SKIPS) == []


def test_a_message_level_harness_loads_no_chain_stack():
    modules = loaded("from repro.consensus.testbed import build_harness\n"
                     "build_harness('hotstuff')")
    assert "repro.consensus.hotstuff" in modules
    assert within(modules, ["repro.blockchains", "repro.vm", "yaml"]) == []


def test_cli_help_loads_no_stack():
    modules = loaded(HELP)
    assert "repro.cli" in modules
    assert within(modules, ["numpy", "repro.blockchains"]) == []
