"""One-call benchmark pipeline.

``run_benchmark`` is the ``diablo primary ... setup.yaml workload.yaml``
command in one function: deploy the chain, provision resources, generate
the workload, run, aggregate.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Union

from repro.core.primary import DEFAULT_DRAIN, Primary
from repro.core.spec import load_spec
from repro.core.watchdog import DEFAULT_WINDOW

if TYPE_CHECKING:
    from repro.core.results import BenchmarkResult
    from repro.core.spec import WorkloadSpec
    from repro.sim.deployment import DeploymentConfig
    from repro.workloads.traces import Trace


def run_benchmark(chain: str, deployment: Union[str, DeploymentConfig],
                  spec: Union[WorkloadSpec, str],
                  workload_name: str = "workload",
                  scale: Optional[float] = None,
                  seed: int = 0,
                  drain: float = DEFAULT_DRAIN,
                  max_sim_seconds: Optional[float] = None,
                  watchdog_window: float = DEFAULT_WINDOW
                  ) -> BenchmarkResult:
    """Run one benchmark from a WorkloadSpec (or its YAML text)."""
    if isinstance(spec, str):
        spec = load_spec(spec)
    primary = Primary(chain, deployment, scale=scale, seed=seed)
    return primary.run(spec, workload_name=workload_name, drain=drain,
                       max_sim_seconds=max_sim_seconds,
                       watchdog_window=watchdog_window)


def run_trace(chain: str, deployment: Union[str, DeploymentConfig],
              trace: Trace,
              accounts: int = 2_000,
              clients: int = 1,
              scale: Optional[float] = None,
              seed: int = 0,
              drain: float = DEFAULT_DRAIN,
              max_sim_seconds: Optional[float] = None,
              watchdog_window: float = DEFAULT_WINDOW
              ) -> BenchmarkResult:
    """Run one of the workload-suite traces against a chain."""
    spec = trace.spec(accounts=accounts, clients=clients)
    return run_benchmark(chain, deployment, spec,
                         workload_name=trace.name,
                         scale=scale, seed=seed, drain=drain,
                         max_sim_seconds=max_sim_seconds,
                         watchdog_window=watchdog_window)
