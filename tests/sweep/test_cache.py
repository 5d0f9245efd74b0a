"""Result-cache keys: what must hit and what must miss."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.results import BenchmarkResult, RecordTable, TransactionRecord
from repro.core.spec import load_spec
from repro.sweep import (
    ResultCache,
    cell_key,
    cell_key_fields,
    load_sweep,
    run_sweep,
    spec_fingerprint,
)
from repro.sweep.cache import CHUNK_BYTES, PUT_PARTS, CacheEntryError

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


def _entry_files(directory):
    """The entry files under a cache directory."""
    return list(directory.glob("*/*.json"))


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
        assert cache.get("ab" + "0" * 62).read() == payload
        assert len(_entry_files(tmp_path)) == 1

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
        # bodies past one chunk: digest and UTF-8 are checked to the end
        long_body = b"a" * (2 * CHUNK_BYTES)
        cut = long_body[:CHUNK_BYTES - 1] + b"\xc3(" + long_body[CHUNK_BYTES + 1:]
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
                # the digest matches, but a character that starts at the
                # end of the first chunk is not continued in the second
                _header(key, cut) + b"\n" + cut,
                # a flipped byte in the second chunk
                _header(key, long_body) + b"\n" + long_body[:CHUNK_BYTES + 1]
                + b"b" + long_body[CHUNK_BYTES + 2:],
        ):
            cache.put(key, {}, "{}")
            assert cache.get(key).read() == "{}"
            refused = cache.corrupt
            path.write_bytes(entry)
            assert cache.get(key) is None, entry
            assert cache.corrupt == refused + 1, entry

    def test_a_character_across_a_chunk_boundary_is_a_hit(self, tmp_path):
        """Chunks split characters; the decoder carries the cut bytes."""
        cache = ResultCache(tmp_path)
        key = "ab" + "2" * 62
        # two-byte characters at odd offsets: the first chunk ends inside one
        body = "x" + "\u00e9" * CHUNK_BYTES
        cache.put(key, {}, body)
        assert cache.get(key).read() == body
        assert cache.corrupt == 0

    def test_an_entry_is_read_again_when_asked(self, tmp_path):
        """get() keeps no text: a read after the entry changes fails,
        naming the entry, and never returns another document."""
        cache = ResultCache(tmp_path)
        key = "ab" + "3" * 62
        path = tmp_path / key[:2] / f"{key}.json"
        cache.put(key, {}, '{"first": 1}')
        entry = cache.get(key)
        first = path.read_bytes()
        cache.put(key, {}, '{"second": 2}')              # another document
        with pytest.raises(CacheEntryError, match=key):
            entry.read()
        with pytest.raises(CacheEntryError, match=key):
            entry.summary()
        path.write_bytes(first.replace(b"1}", b"2}"))    # the body edited
        with pytest.raises(CacheEntryError, match=key):
            entry.read()
        path.unlink()
        with pytest.raises(CacheEntryError, match=key):
            entry.read()
        path.write_bytes(first)                           # the same bytes
        assert entry.read() == '{"first": 1}'

    def test_summary_reads_past_the_first_piece(self, tmp_path):
        """A summary longer than the first read still decodes."""
        cache = ResultCache(tmp_path)
        key = "ab" + "4" * 62
        summary = {"chain": "quorum", "timeseries": [{"t": t, "x": "y" * 50}
                                                     for t in range(5000)]}
        body = ('{"summary": ' + json.dumps(summary)
                + ', "transactions": []}')
        assert len(body) > 4 * CHUNK_BYTES
        cache.put(key, {}, body)
        assert cache.get(key).summary() == summary

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
        assert cache.get(key).read() == body
        assert not list(tmp_path.glob("*/.*.tmp"))     # temp file renamed

    def test_entries_on_missing_directory(self, tmp_path):
        cache = ResultCache(tmp_path / "nowhere")
        assert cache.get("ab" + "0" * 62) is None
        assert _entry_files(tmp_path) == []


def _result(rows: int) -> BenchmarkResult:
    """A result with *rows* records: runs of rows share a tail, and
    every fifth one never commits."""
    records = [TransactionRecord(
        uid, "transfer", None, None, f"client-{uid % 3}", uid // 7 * 0.5,
        None if uid % 5 == 4 else uid // 7 * 0.5 + 1.25, False, None)
        for uid in range(rows)]
    return BenchmarkResult("quorum", "testnet", "native", 10.0, 0.05,
                           records=RecordTable(records),
                           chain_stats={"height": 3})


def _parent_entry(key: str, fields: dict, text: str) -> bytes:
    """The bytes an entry had when put() encoded the whole text at once:
    a header naming the body's digest, a newline, the body."""
    body = text.encode("utf-8")
    header = json.dumps({"key": key, "fields": fields,
                         "sha256": hashlib.sha256(body).hexdigest()})
    return header.encode("utf-8") + b"\n" + body


class TestStreamedPut:
    """put() writes a document's pieces a slice at a time and fills the
    header's digest in last; the entry is the one the text made."""

    FIELDS = {"chain": "quorum", "seed": 1, "note": "caf\u00e9"}

    @pytest.mark.parametrize("rows", [0, 1, 3 * PUT_PARTS],
                             ids=["no records", "one row", "many slices"])
    def test_an_entry_from_parts_is_the_entry_from_the_text(
            self, tmp_path, rows):
        result = _result(rows)
        parts = result.json_parts()
        if rows > 1:
            assert len(parts) > 2 * PUT_PARTS        # several slices
        text = result.to_json()
        key = "ab" + "5" * 62
        cache = ResultCache(tmp_path)
        entry = cache.put(key, self.FIELDS, parts)
        assert entry.path.read_bytes() == _parent_entry(key, self.FIELDS,
                                                        text)
        hit = cache.get(key)
        assert hit == entry
        assert hit.read() == text
        assert hit.summary() == BenchmarkResult.summary_from_json(text)
        assert cache.corrupt == 0

    def test_a_raising_source_leaves_no_entry_and_no_temp_file(
            self, tmp_path):
        parts = _result(2 * PUT_PARTS).json_parts()

        def source():
            yield from parts[:PUT_PARTS + 7]       # past the first slice
            raise RuntimeError("the run died mid-document")

        cache = ResultCache(tmp_path)
        key = "ab" + "6" * 62
        with pytest.raises(RuntimeError, match="mid-document"):
            cache.put(key, {}, source())
        assert cache.get(key) is None
        assert list(tmp_path.rglob("*")) == [tmp_path / key[:2]]

    def test_a_fresh_cell_reports_the_summary_its_replay_does(
            self, tmp_path):
        spec = load_sweep(SWEEP)
        fresh = run_sweep(spec, cache=ResultCache(tmp_path))
        replay = run_sweep(spec, cache=ResultCache(tmp_path))
        (cold,), (warm,) = fresh.outcomes, replay.outcomes
        assert (cold.cached, warm.cached) == (False, True)
        assert cold.summary == warm.summary
        assert cold.summary == BenchmarkResult.summary_from_json(
            warm.result_json)


def _header(key: str, body: bytes) -> bytes:
    """The header line put() writes for *body*."""
    return json.dumps({"key": key, "fields": {},
                       "sha256": hashlib.sha256(body).hexdigest()}).encode()
