"""Tests for the command-line interface."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main

SPECS = Path(__file__).resolve().parents[2] / "examples" / "specs"

WORKLOAD = """
workloads:
  - number: 1
    client:
      location: { sample: !location [ ".*" ] }
      view: { sample: !endpoint [ ".*" ] }
      behavior:
        - interaction: !transfer
            from: { sample: !account { number: 10 } }
          load: { 0: 50, 5: 0 }
"""


class TestCli:
    def test_chains_lists_six(self, capsys):
        assert main(["chains"]) == 0
        out = capsys.readouterr().out
        for chain in ("algorand", "avalanche", "diem", "ethereum",
                      "quorum", "solana"):
            assert chain in out

    def test_workloads_lists_suite(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("dapp-exchange", "nasdaq-apple", "native-1000"):
            assert name in out

    def test_suite_run_prints_summary(self, capsys):
        assert main(["suite", "--chain", "quorum",
                     "--configuration", "testnet",
                     "--workload", "nasdaq-google",
                     "--scale", "0.1", "--accounts", "50"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["chain"] == "quorum"
        assert summary["submitted"] > 0

    def test_run_yaml_and_csv_roundtrip(self, tmp_path, capsys):
        workload = tmp_path / "w.yaml"
        workload.write_text(WORKLOAD)
        output = tmp_path / "results.json"
        assert main(["run", "--chain", "solana",
                     "--configuration", "testnet",
                     "--scale", "0.2",
                     "--output", str(output), "--stat",
                     str(workload)]) == 0
        assert output.exists()
        capsys.readouterr()
        assert main(["csv", str(output)]) == 0
        csv_text = capsys.readouterr().out
        assert csv_text.startswith("submitted_at,latency_s,committed")
        assert len(csv_text.splitlines()) > 10

    def test_run_takes_no_accounts_flag(self, tmp_path, capsys):
        """The spec names its own account sample."""
        workload = tmp_path / "w.yaml"
        workload.write_text(WORKLOAD)
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--chain", "quorum", "--accounts", "10",
                  str(workload)])
        assert excinfo.value.code == 2
        assert "--accounts" in capsys.readouterr().err

    def test_a_faulted_run_narrates_after_its_summary(self, capsys):
        assert main(["run", "--chain", "quorum", "--scale", "0.05",
                     str(SPECS / "crash-and-recover.yaml")]) == 0
        summary, report = capsys.readouterr().out.split("fault window", 1)
        assert len(json.loads(summary)["fault_events"]) == 8
        assert "time to recover" in report

    def test_unknown_chain_rejected(self):
        with pytest.raises(SystemExit):
            main(["suite", "--chain", "bitcoin", "--workload", "native-1000"])


class TestCompression:
    def test_compressed_output_roundtrips(self, tmp_path, capsys):
        output = tmp_path / "results.json"
        assert main(["suite", "--chain", "quorum",
                     "--configuration", "testnet",
                     "--workload", "nasdaq-google",
                     "--scale", "0.1", "--accounts", "50",
                     "--output", str(output), "--compress"]) == 0
        gz = tmp_path / "results.json.gz"
        assert gz.exists()
        capsys.readouterr()
        assert main(["csv", str(gz)]) == 0
        assert "submitted_at" in capsys.readouterr().out


class TestSpecErrors:
    """A malformed spec is one ``repro: error:`` line and exit status 2."""

    def test_run_reports_the_key_path(self, tmp_path, capsys):
        spec = tmp_path / "bad.yaml"
        spec.write_text("workloads:\n  - number: 1\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--chain", "quorum", "--scale", "0.05", str(spec)])
        assert excinfo.value.code == 2
        assert capsys.readouterr().err == (
            "repro: error: workloads[0].client: missing required key\n")

    def test_sweep_reports_the_key_path(self, tmp_path, capsys):
        spec = tmp_path / "bad-sweep.yaml"
        spec.write_text("sweep:\n  chains: [quorum]\n"
                        "  configurations: [testnet]\n"
                        "  workloads: [native-100]\n  seeds: [one]\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--no-cache", str(spec)])
        assert excinfo.value.code == 2
        assert capsys.readouterr().err == (
            "repro: error: sweep.seeds[0]: expected an integer, got 'one'\n")

    def test_run_rejects_a_link_fault_on_a_chain(self, tmp_path, capsys):
        # the chain model sends no messages, so a degraded link would be
        # reported as applied and change nothing
        spec = tmp_path / "link.yaml"
        spec.write_text(WORKLOAD + "faults:\n"
                        "  - { at: 2, kind: link_degrade, src: 0, dst: 1,"
                        " extra_latency: 5.0, drop_rate: 1.0 }\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--chain", "quorum", "--scale", "0.05", str(spec)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: faults: link_degrade")
        assert err.count("\n") == 1
