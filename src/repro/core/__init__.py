"""DIABLO core: workload spec, Primary/Secondary, results, runner."""

from repro import lazy_package

__all__ = [
    "AccountSample",
    "Behavior",
    "BenchmarkResult",
    "BlockchainConnector",
    "Client",
    "ClientSpec",
    "ContractSample",
    "EndpointSample",
    "InvokeSpec",
    "LoadSchedule",
    "LocationSample",
    "Primary",
    "Secondary",
    "SimConnector",
    "TransactionRecord",
    "TransferSpec",
    "WorkloadGroup",
    "WorkloadSpec",
    "load_spec",
    "parse_function_call",
    "run_benchmark",
    "run_trace",
    "simple_spec",
    "spec_from_dict",
]

__getattr__, __dir__ = lazy_package(globals(), {
    "repro.core.interface": ("BlockchainConnector", "Client", "SimConnector"),
    "repro.core.primary": ("Primary",),
    "repro.core.results": ("BenchmarkResult", "TransactionRecord"),
    "repro.core.runner": ("run_benchmark", "run_trace"),
    "repro.core.secondary": ("Secondary",),
    "repro.core.spec": (
        "AccountSample", "Behavior", "ClientSpec", "ContractSample",
        "EndpointSample", "InvokeSpec", "LoadSchedule", "LocationSample",
        "TransferSpec", "WorkloadGroup", "WorkloadSpec", "load_spec",
        "parse_function_call", "simple_spec", "spec_from_dict",
    ),
})
