"""One-call benchmark pipeline.

``run_trace`` is the ``diablo primary ... setup.yaml workload.yaml``
command in one function: deploy the chain, provision resources, generate
the workload, run, aggregate.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Optional, Union

from repro.core.primary import DEFAULT_DRAIN, Primary
from repro.core.spec import load_spec
from repro.core.watchdog import DEFAULT_WINDOW

if TYPE_CHECKING:
    from repro.core.results import BenchmarkResult
    from repro.core.spec import WorkloadSpec
    from repro.obs.metrics import ObservabilityOptions
    from repro.sim.deployment import DeploymentConfig
    from repro.sweep.cache import ResultCache
    from repro.workloads.traces import Trace


def run_benchmark(chain: str, deployment: Union[str, DeploymentConfig],
                  spec: Union[WorkloadSpec, str],
                  workload_name: str = "workload",
                  scale: Optional[float] = None,
                  seed: int = 0,
                  drain: float = DEFAULT_DRAIN,
                  max_sim_seconds: Optional[float] = None,
                  watchdog_window: float = DEFAULT_WINDOW,
                  observe: Optional[ObservabilityOptions] = None
                  ) -> BenchmarkResult:
    """Run one benchmark from a WorkloadSpec (or its YAML text)."""
    if isinstance(spec, str):
        spec = load_spec(spec)
    primary = Primary(chain, deployment, scale=scale, seed=seed,
                      observe=observe)
    return primary.run(spec, workload_name=workload_name, drain=drain,
                       max_sim_seconds=max_sim_seconds,
                       watchdog_window=watchdog_window)


def run_population(chain: str, deployment: Union[str, DeploymentConfig],
                   users: int,
                   rate_per_user: float = 0.001,
                   duration: float = 120.0,
                   cohort: Optional[int] = None,
                   arrival: str = "poisson",
                   accounts: int = 2_000,
                   scale: Optional[float] = None,
                   seed: int = 0,
                   drain: float = DEFAULT_DRAIN,
                   max_sim_seconds: Optional[float] = None,
                   watchdog_window: float = DEFAULT_WINDOW,
                   observe: Optional[ObservabilityOptions] = None
                   ) -> BenchmarkResult:
    """Run a population workload: *users* simulated users transferring at
    a constant per-user rate, as aggregate arrival processes plus a
    tracked cohort (see :mod:`repro.core.population` and docs/SCALE.md).
    """
    from repro.core.spec import AccountSample, TransferSpec, \
        simple_population_spec
    spec = simple_population_spec(
        users=users, interaction=TransferSpec(AccountSample(accounts)),
        rate_per_user=rate_per_user, duration=duration,
        cohort=cohort, arrival=arrival)
    return run_benchmark(chain, deployment, spec,
                         workload_name=f"population-{users}",
                         scale=scale, seed=seed, drain=drain,
                         max_sim_seconds=max_sim_seconds,
                         watchdog_window=watchdog_window,
                         observe=observe)


def run_trace(chain: str, deployment: Union[str, DeploymentConfig],
              trace: Trace,
              accounts: int = 2_000,
              clients: int = 1,
              scale: Optional[float] = None,
              seed: int = 0,
              drain: float = DEFAULT_DRAIN,
              max_sim_seconds: Optional[float] = None,
              watchdog_window: float = DEFAULT_WINDOW,
              observe: Optional[ObservabilityOptions] = None
              ) -> BenchmarkResult:
    """Run one of the workload-suite traces against a chain."""
    spec = trace.spec(accounts=accounts, clients=clients)
    return run_benchmark(chain, deployment, spec,
                         workload_name=trace.name,
                         scale=scale, seed=seed, drain=drain,
                         max_sim_seconds=max_sim_seconds,
                         watchdog_window=watchdog_window,
                         observe=observe)


def run_matrix(chains: Iterable[str],
               deployment: Union[str, DeploymentConfig],
               trace: Trace,
               scale: Optional[float] = None,
               seed: int = 0,
               workers: int = 1,
               cache: Optional["ResultCache"] = None,
               accounts: int = 2_000,
               clients: int = 1,
               drain: float = DEFAULT_DRAIN,
               max_sim_seconds: Optional[float] = None,
               watchdog_window: float = DEFAULT_WINDOW,
               observe: Optional[ObservabilityOptions] = None
               ) -> Dict[str, BenchmarkResult]:
    """Run the same trace against several chains (a figure column).

    A thin wrapper over a one-row :class:`repro.sweep.SweepSpec`: pass
    ``workers=N`` to fan the chains out over a process pool and
    ``cache=ResultCache(...)`` to replay unchanged cells from disk —
    single-worker, uncached calls behave exactly as before. A cell that
    *crashes* re-raises here (matching the old serial behaviour);
    watchdog-failed cells return their ``failed`` result like any other.
    """
    # imported here: repro.sweep imports this module for run_trace
    from repro.sweep.runner import run_sweep
    from repro.sweep.spec import CellOptions, SweepSpec

    spec = SweepSpec(
        chains=tuple(chains),
        configurations=(deployment,),
        workloads=(trace,),
        seeds=(seed,),
        scales=(scale,),
        options=CellOptions(accounts=accounts, clients=clients, drain=drain,
                            max_sim_seconds=max_sim_seconds,
                            watchdog_window=watchdog_window,
                            observe=observe))
    sweep = run_sweep(spec, workers=workers, cache=cache)
    results: Dict[str, BenchmarkResult] = {}
    for outcome in sweep.outcomes:
        if outcome.result_json is None:
            failure = outcome.failure
            raise RuntimeError(
                f"benchmark cell {outcome.cell.label} crashed:"
                f" {failure}\n{failure.traceback_text}")
        results[outcome.cell.chain] = outcome.result
    return results
