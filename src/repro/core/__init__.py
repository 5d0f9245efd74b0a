"""DIABLO core: workload spec, Primary/Secondary, results, runner."""
