"""Sweep specification parsing and deterministic cell expansion."""

from __future__ import annotations

import pytest

from repro.common.errors import SpecError
from repro.sweep import CellOptions, SweepSpec, load_sweep
from repro.workloads import constant_transfer_trace

MINIMAL = """
sweep:
  chains: [quorum, solana]
  configurations: [testnet]
  workloads: [native-100]
"""

FULL = """
sweep:
  chains: [quorum]
  configurations: [testnet, datacenter]
  workloads: [native-100, dapp-exchange]
  seeds: [1, 2, 3]
  scales: [0.05, 0.1]
options:
  accounts: 500
  clients: 2
  drain: 60
  max_sim_seconds: 900
  watchdog_window: 20
"""


class TestParsing:
    def test_minimal_defaults(self):
        spec = load_sweep(MINIMAL)
        assert spec.chains == ("quorum", "solana")
        assert spec.seeds == (0,)
        assert spec.scales == (None,)
        assert spec.options == CellOptions()

    def test_full_document(self):
        spec = load_sweep(FULL)
        assert spec.seeds == (1, 2, 3)
        assert spec.scales == (0.05, 0.1)
        assert spec.options.accounts == 500
        assert spec.options.clients == 2
        assert spec.options.max_sim_seconds == 900
        assert len(spec.cells()) == 1 * 2 * 2 * 3 * 2

    def test_empty_document_rejected(self):
        with pytest.raises(SpecError):
            load_sweep("")

    def test_missing_sweep_key_rejected(self):
        with pytest.raises(SpecError, match="chains: unknown key"):
            load_sweep("chains: [quorum]")

    def test_unknown_chain_rejected(self):
        with pytest.raises(SpecError, match="unknown chain"):
            load_sweep("sweep:\n  chains: [bitcoin]\n"
                       "  configurations: [testnet]\n"
                       "  workloads: [native-100]\n")

    def test_unknown_configuration_rejected(self):
        with pytest.raises(SpecError, match="unknown configuration"):
            load_sweep("sweep:\n  chains: [quorum]\n"
                       "  configurations: [mainnet]\n"
                       "  workloads: [native-100]\n")

    def test_unknown_workload_rejected(self):
        with pytest.raises(SpecError, match="unknown workload"):
            load_sweep("sweep:\n  chains: [quorum]\n"
                       "  configurations: [testnet]\n"
                       "  workloads: [no-such-trace]\n")

    def test_unknown_sweep_key_rejected(self):
        with pytest.raises(SpecError, match="sweep.chans: unknown key"):
            load_sweep(MINIMAL + "  chans: [quorum]\n")

    def test_unknown_option_rejected(self):
        with pytest.raises(SpecError, match="options.acounts: unknown key"):
            load_sweep(MINIMAL + "options:\n  acounts: 5\n")

    def test_observe_option_rejected(self):
        # observability is turned on per Primary, never per sweep cell
        with pytest.raises(SpecError, match="options.observe: unknown key"):
            load_sweep(MINIMAL + "options:\n  observe: {trace: true}\n")

    def test_negative_scale_rejected(self):
        with pytest.raises(SpecError, match="positive"):
            load_sweep("sweep:\n  chains: [quorum]\n"
                       "  configurations: [testnet]\n"
                       "  workloads: [native-100]\n"
                       "  scales: [-1]\n")


class TestExpansion:
    def test_cell_order_is_spec_order(self):
        spec = load_sweep(FULL)
        cells = spec.cells()
        assert [c.index for c in cells] == list(range(len(cells)))
        # chains outermost, scales innermost
        assert cells[0].configuration.name == "testnet"
        assert cells[0].workload == "native-100"
        assert (cells[0].seed, cells[0].scale) == (1, 0.05)
        assert (cells[1].seed, cells[1].scale) == (1, 0.1)
        assert cells[2].seed == 2
        # the expansion is stable across calls
        assert [c.label for c in cells] == [c.label for c in spec.cells()]

    def test_none_scale_resolves_to_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.25")
        spec = load_sweep(MINIMAL)
        assert all(cell.scale == 0.25 for cell in spec.cells())

    def test_programmatic_trace_objects(self):
        trace = constant_transfer_trace(123)
        spec = SweepSpec(chains=("quorum",), configurations=("testnet",),
                         workloads=(trace,))
        (cell,) = spec.cells()
        assert cell.trace is trace
        assert cell.workload == trace.name

    def test_shape_string(self):
        assert load_sweep(FULL).shape() == "1x2x2x3x2 = 24 cells"
