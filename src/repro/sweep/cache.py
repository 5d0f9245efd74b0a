"""Content-addressed on-disk cache for benchmark results.

A cell's result is fully determined by what went into it: the chain, the
resolved deployment configuration, the parsed workload specification, the
seed, the scale factor, the run options, and the simulator's source code.
The cache key is a SHA-256 over the canonical JSON of exactly those
fields, so

* re-running an unchanged sweep replays every cell from disk, instantly
  and byte-identically;
* whitespace/comment edits to the sweep or workload YAML still hit (the
  hash is over the *parsed* spec, never the text);
* any change to the inputs — a different seed, one more account, an
  edited source file under ``src/repro`` — misses and re-runs.

Layout: ``<cache_dir>/<key[:2]>/<key>.json``, one entry per cell: a
one-line JSON header carrying the key, the human-readable key fields and
the SHA-256 of the body bytes, a newline, then the verbatim
``BenchmarkResult`` JSON produced by the run — stored and returned as it
is, never re-encoded or parsed here. A hit is an entry whose body still
has the digest its header names, so truncation, a flipped byte and an
entry of an older format are all misses (counted in
:attr:`ResultCache.corrupt`) that the re-run overwrites. Entries are
written atomically (temp file + rename), so concurrent sweeps sharing a
cache directory cannot corrupt each other.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from functools import lru_cache
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.core.spec import WorkloadSpec
from repro.sweep.spec import SweepCell

#: cache format version; bump to orphan every existing entry
CACHE_VERSION = 3


def _canonical(value: Any) -> Any:
    """Reduce dataclass trees / tuples to plain JSON-able structures."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {"__type__": type(value).__name__,
                **{f.name: _canonical(getattr(value, f.name))
                   for f in dataclasses.fields(value)}}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _canonical(val) for key, val in value.items()}
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def canonical_json(value: Any) -> str:
    """Deterministic JSON serialization of a (nested) dataclass value."""
    return json.dumps(_canonical(value), sort_keys=True, separators=(",", ":"))


def spec_fingerprint(spec: WorkloadSpec) -> str:
    """Hash of a parsed workload specification.

    Two YAML texts that parse to the same :class:`WorkloadSpec` — e.g. a
    whitespace-only edit — produce the same fingerprint.
    """
    digest = hashlib.sha256(canonical_json(spec).encode())
    return digest.hexdigest()


def code_version() -> str:
    """Fingerprint of the simulator's source tree.

    Hashes every ``*.py`` file under ``src/repro`` (path + contents, in
    sorted order) so editing any simulator source invalidates cached
    results. Override with ``REPRO_CODE_VERSION`` to pin a version string
    (tests use this to exercise invalidation without editing files).
    """
    override = os.environ.get("REPRO_CODE_VERSION")
    if override:
        return override
    return _source_tree_version()


@lru_cache(maxsize=1)
def _source_tree_version() -> str:
    root = Path(__file__).resolve().parents[1]
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\x00")
        digest.update(path.read_bytes())
        digest.update(b"\x00")
    return digest.hexdigest()[:16]


def cell_key_fields(cell: SweepCell) -> Dict[str, Any]:
    """The named inputs a cell's cache key is derived from.

    Population cells hash the *population* spec (users, cohort, per-user
    rate profile) plus the explicit ``population`` axis value and the
    population options; classic cells keep exactly their original field
    set, so existing cache entries stay valid.
    """
    if cell.population is not None:
        spec = cell.trace.population_spec(
            cell.population, rate_per_user=cell.options.rate_per_user,
            accounts=cell.options.accounts, cohort=cell.options.cohort)
    else:
        spec = cell.trace.spec(accounts=cell.options.accounts,
                               clients=cell.options.clients)
    options = {
        "drain": cell.options.drain,
        "max_sim_seconds": cell.options.max_sim_seconds,
        "watchdog_window": cell.options.watchdog_window,
        "observe": _canonical(cell.options.observe),
    }
    fields = {
        "cache_version": CACHE_VERSION,
        "chain": cell.chain,
        "deployment": _canonical(cell.configuration),
        "workload": cell.workload,
        "spec_hash": spec_fingerprint(spec),
        "seed": cell.seed,
        "scale": cell.scale,
        "options": options,
        "code_version": code_version(),
    }
    if cell.population is not None:
        fields["population"] = cell.population
        options["cohort"] = cell.options.cohort
        options["rate_per_user"] = cell.options.rate_per_user
    return fields


def cell_key(cell: SweepCell) -> str:
    """The content-addressed cache key of a cell."""
    payload = json.dumps(cell_key_fields(cell), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


class ResultCache:
    """On-disk store mapping cell keys to verbatim result JSON."""

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory).expanduser()
        #: entries :meth:`get` found on disk and refused, so far
        self.corrupt = 0

    def _path(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[str]:
        """The cached result JSON for *key*, or None on a miss.

        No entry file is a plain miss. An entry that is there but is not
        what :meth:`put` wrote — no header line, a header that is not a
        JSON object naming *key* and a digest, a body with another digest
        or one that is not UTF-8 — is a miss too, counted in
        :attr:`corrupt` (it will be overwritten by the re-run), never an
        error. The body is returned unparsed.
        """
        try:
            with self._path(key).open("rb") as handle:
                header_line = handle.readline()
                body = handle.read()
        except OSError:
            return None
        try:
            header = json.loads(header_line)
            if (header["key"] != key
                    or header["sha256"] != hashlib.sha256(body).hexdigest()):
                raise ValueError("entry is not the one put() wrote")
            return body.decode("utf-8")
        except (ValueError, KeyError, TypeError):
            self.corrupt += 1
            return None

    def put(self, key: str, fields: Dict[str, Any], result_json: str) -> None:
        """Store *result_json* under *key*, atomically and verbatim."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        body = result_json.encode("utf-8")
        header = json.dumps({"key": key, "fields": fields,
                             "sha256": hashlib.sha256(body).hexdigest()})
        descriptor, temp_name = tempfile.mkstemp(
            dir=path.parent, prefix=f".{key[:8]}-", suffix=".tmp")
        try:
            with os.fdopen(descriptor, "wb") as handle:
                handle.write(header.encode("utf-8") + b"\n")
                handle.write(body)
            os.replace(temp_name, path)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise

    def entries(self) -> int:
        """Number of cached results on disk."""
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob("??/*.json"))
