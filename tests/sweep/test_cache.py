"""Result-cache keys: what must hit and what must miss."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.sweep import (
    ResultCache,
    cell_key,
    cell_key_fields,
    load_sweep,
    spec_fingerprint,
)
from repro.core.spec import load_spec

SWEEP = """
sweep:
  chains: [quorum]
  configurations: [testnet]
  workloads: [native-100]
  seeds: [1]
  scales: [0.05]
"""

# identical parse, different text: extra blank lines, comments, indentation
SWEEP_WHITESPACE = """

# the same sweep, reformatted
sweep:
  chains:   [quorum]
  configurations: [testnet]

  workloads: [native-100]
  seeds: [ 1 ]
  scales: [0.05]
"""

WORKLOAD = """
let:
  - &loc { sample: !location [ ".*" ] }
  - &end { sample: !endpoint [ ".*" ] }
  - &acc { sample: !account { number: 100 } }
workloads:
  - number: 1
    client:
      location: *loc
      view: *end
      behavior:
        - interaction: !transfer
            from: *acc
          load: { 0: 100, 10: 0 }
"""


@pytest.fixture(autouse=True)
def pinned_code_version(monkeypatch):
    """Pin the source fingerprint so tests control invalidation."""
    monkeypatch.setenv("REPRO_CODE_VERSION", "test-version")


def _single_cell(text: str = SWEEP):
    (cell,) = load_sweep(text).cells()
    return cell


class TestKeys:
    def test_key_is_stable(self):
        assert cell_key(_single_cell()) == cell_key(_single_cell())

    def test_whitespace_only_sweep_edit_hits(self):
        """The hash is over the parsed spec, never the YAML text."""
        assert cell_key(_single_cell(SWEEP)) == \
            cell_key(_single_cell(SWEEP_WHITESPACE))

    def test_workload_spec_fingerprint_ignores_formatting(self):
        reformatted = WORKLOAD.replace("  - &", "  -    &")
        assert spec_fingerprint(load_spec(WORKLOAD)) == \
            spec_fingerprint(load_spec(reformatted))

    def test_workload_spec_fingerprint_sees_semantic_change(self):
        changed = WORKLOAD.replace("number: 100", "number: 101")
        assert spec_fingerprint(load_spec(WORKLOAD)) != \
            spec_fingerprint(load_spec(changed))

    @pytest.mark.parametrize("before,after", [
        ("chains: [quorum]", "chains: [solana]"),
        ("configurations: [testnet]", "configurations: [datacenter]"),
        ("workloads: [native-100]", "workloads: [native-1000]"),
        ("seeds: [1]", "seeds: [2]"),
        ("scales: [0.05]", "scales: [0.1]"),
    ])
    def test_every_matrix_axis_is_in_the_key(self, before, after):
        assert cell_key(_single_cell(SWEEP)) != \
            cell_key(_single_cell(SWEEP.replace(before, after)))

    def test_options_are_in_the_key(self):
        assert cell_key(_single_cell(SWEEP)) != \
            cell_key(_single_cell(SWEEP + "options:\n  accounts: 7\n"))

    def test_code_version_is_in_the_key(self, monkeypatch):
        key_before = cell_key(_single_cell())
        monkeypatch.setenv("REPRO_CODE_VERSION", "edited-sources")
        assert cell_key(_single_cell()) != key_before

    def test_key_fields_are_json_serializable(self):
        fields = cell_key_fields(_single_cell())
        parsed = json.loads(json.dumps(fields))
        assert parsed["chain"] == "quorum"
        assert parsed["seed"] == 1
        assert parsed["code_version"] == "test-version"


class TestStore:
    def test_roundtrip_is_verbatim(self, tmp_path):
        cache = ResultCache(tmp_path)
        payload = '{"summary": {"chain": "quorum"}, "transactions": []}'
        cache.put("ab" + "0" * 62, {"chain": "quorum"}, payload)
        assert cache.get("ab" + "0" * 62) == payload
        assert cache.entries() == 1

    def test_miss_returns_none(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("cd" + "0" * 62) is None
        assert cache.corrupt == 0           # nothing there to refuse

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        """Every malformed header or body is a counted miss, never an error."""
        cache = ResultCache(tmp_path)
        key = "ef" + "0" * 62
        cache.put(key, {}, "{}")
        path = tmp_path / key[:2] / f"{key}.json"
        header = path.read_bytes().split(b"\n", 1)[0]
        version_2 = json.dumps({"key": key, "fields": {}}).encode()
        for entry in (
                b"not json {",
                b"",                                    # empty file
                b"[]",                                  # JSON, not an object
                b"[]\n{}",
                header[:20],                            # truncated header
                header.replace(b"ef", b"99") + b"\n{}",  # another cell's
                b'{"fields": {}}\n{}',                  # no key at all
                version_2 + b"\n{}",                    # no digest
                header,                                 # header, no body
                header + b"\n",
                header + b"\n{",                        # truncated body
                header + b"\n[]",                       # same length
                header + b"\n\xff\xfe",                 # undecodable body
        ):
            cache.put(key, {}, "{}")
            assert cache.get(key) == "{}"
            refused = cache.corrupt
            path.write_bytes(entry)
            assert cache.get(key) is None, entry
            assert cache.corrupt == refused + 1, entry

    def test_entry_is_a_header_line_then_the_verbatim_body(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ab" + "1" * 62
        # an escape, a two-byte character and a CR LF: none is translated
        body = ('{"summary": {"chain": "caf\\u00e9 \u00e9 \\"q\\""},\r\n'
                ' "transactions": []}')
        cache.put(key, {"chain": "quorum"}, body)
        header, stored = (tmp_path / key[:2] / f"{key}.json") \
            .read_bytes().split(b"\n", 1)
        assert json.loads(header) == {
            "key": key, "fields": {"chain": "quorum"},
            "sha256": hashlib.sha256(stored).hexdigest()}
        assert stored == body.encode()
        assert cache.get(key) == body
        assert not list(tmp_path.glob("*/.*.tmp"))     # temp file renamed

    def test_entries_on_missing_directory(self, tmp_path):
        assert ResultCache(tmp_path / "nowhere").entries() == 0
