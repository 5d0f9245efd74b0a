"""repro — a Python reproduction of DIABLO (EuroSys 2023).

DIABLO is a benchmark suite evaluating blockchains with realistic
decentralized applications. This package reimplements the full system as a
deterministic discrete-event simulation: the DIABLO framework itself
(Primary/Secondary load generation, the blockchain abstraction, the
workload specification language), the five DApp workloads, and simulated
versions of the six evaluated blockchains (Algorand, Avalanche, Diem,
Ethereum, Quorum, Solana) down to their consensus protocols, virtual
machines and mempool policies.

Quickstart::

    from repro import run_trace
    from repro.workloads import deployment_challenge_trace

    result = run_trace("quorum", "testnet", deployment_challenge_trace(),
                       scale=0.1, accounts=200)
    print(result.summary())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record of every table and figure.

Five packages are facades: this one, :mod:`repro.analysis`,
:mod:`repro.obs`, :mod:`repro.sweep` and :mod:`repro.workloads`. Every
other package init is its docstring alone, so a name there is imported
from its home module. No package init but :mod:`repro.sweep`'s imports
anything: a facade imports a name from its home module the first time it
is read (:func:`lazy_package`), so a run loads only the modules it uses.
"""

import importlib
from typing import Any, Callable, Dict, List, MutableMapping, Sequence, Tuple

__version__ = "1.0.0"

__all__ = [
    "BenchmarkResult",
    "ExperimentScale",
    "LoadSchedule",
    "PopulationSpec",
    "Primary",
    "ResultCache",
    "SweepSpec",
    "WorkloadSpec",
    "__version__",
    "load_spec",
    "load_sweep",
    "run_benchmark",
    "run_sweep",
    "run_trace",
]


def lazy_package(namespace: MutableMapping[str, Any],
                 homes: Dict[str, Sequence[str]]
                 ) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The PEP 562 ``__getattr__`` and ``__dir__`` of a package whose
    public names live in its modules.

    *namespace* is the package's ``globals()`` and *homes* maps each
    module to the names it exports. A name is imported from its home the
    first time it is read and then kept in *namespace*, so the package
    init itself imports nothing.
    """
    home = {name: module for module, names in homes.items()
            for name in names}
    package = namespace["__name__"]

    def __getattr__(name: str) -> Any:
        if name not in home:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(
            importlib.import_module(home[name]), name)
        return value

    def __dir__() -> List[str]:
        return sorted({*namespace, *home})

    return __getattr__, __dir__


__getattr__, __dir__ = lazy_package(globals(), {
    "repro.blockchains.base": ("ExperimentScale",),
    "repro.core.population": ("PopulationSpec",),
    "repro.core.primary": ("Primary",),
    "repro.core.results": ("BenchmarkResult",),
    "repro.core.runner": ("run_benchmark", "run_trace"),
    "repro.core.spec": ("LoadSchedule", "WorkloadSpec", "load_spec"),
    # the sweep package loads whole: a sweep is specified to be run
    "repro.sweep": ("ResultCache", "SweepSpec", "load_sweep", "run_sweep"),
})
