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

A fresh document is streamed into its entry: :meth:`ResultCache.put`
takes the pieces a result's JSON is joined from and writes them a slice
at a time, hashing each slice as it goes. The header's digest is the
last value of its one line and is always 64 hex characters, so the
header is written first with a placeholder of that length and the digest
is written over it once the body is in: the entry is byte for byte what
writing the joined text would have made.

A hit is a :class:`CacheEntry`, not the document: :meth:`ResultCache.get`
verifies the body as a stream of chunks and keeps none of it, and the
entry reads the document's summary, or the whole text, from disk when
asked, checking again that the bytes are the ones it verified.
"""

from __future__ import annotations

import codecs
import dataclasses
import hashlib
import json
import os
import tempfile
from contextlib import contextmanager
from functools import lru_cache, partial
from itertools import islice
from pathlib import Path
from typing import (TYPE_CHECKING, Any, BinaryIO, Dict, Iterable, Iterator,
                    Optional, Union)

from repro.core.results import BenchmarkResult

if TYPE_CHECKING:
    from repro.core.spec import WorkloadSpec
    from repro.sweep.spec import SweepCell

#: cache format version; bump to orphan every existing entry
CACHE_VERSION = 3
#: bytes :meth:`ResultCache.get` reads per step while it verifies a body,
#: and :meth:`CacheEntry.summary` reads first from its head (small enough
#: that a chunk and its decoded text stay in the CPU's cache)
CHUNK_BYTES = 1 << 16
#: bytes of a body's end :meth:`CacheEntry.summary` reads (a result
#: document ends with ``]}``)
_TAIL_BYTES = 16
#: pieces of a document :meth:`ResultCache.put` joins, encodes and hashes
#: per write (a result row is two pieces, about 200 bytes)
PUT_PARTS = 1 << 12
#: what :meth:`ResultCache.put` writes in the header before the body's
#: digest is known: a SHA-256 hex digest is always this long
_PLACEHOLDER = "0" * 64


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
    population options; classic cells carry none of those fields.
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


class CacheEntryError(ValueError):
    """A verified cache entry is gone, or holds another document now."""


@dataclasses.dataclass(frozen=True)
class CacheEntry:
    """A verified entry on disk: where it is and its body's digest.

    Holds no document text. :meth:`summary` and :meth:`read` open the
    file again, and raise :class:`CacheEntryError` naming the entry when
    it is gone or no longer holds the body that :meth:`ResultCache.get`
    verified (or :meth:`ResultCache.put` wrote).
    """

    path: Path
    sha256: str

    @contextmanager
    def _body(self) -> Iterator[BinaryIO]:
        """The entry's file, read from the start of its body."""
        try:
            with self.path.open("rb") as handle:
                if _header_digest(handle.readline()) != self.sha256:
                    raise CacheEntryError(
                        f"cache entry {self.path} holds another document"
                        " than the one verified")
                yield handle
        except OSError as exc:
            raise CacheEntryError(
                f"cache entry {self.path} cannot be read: {exc}") from exc

    def summary(self) -> Dict[str, Any]:
        """The result document's ``summary``, its records left unread.

        Reads the body's last bytes and its head, in pieces that double
        from :data:`CHUNK_BYTES` until the summary decodes. Raises
        :class:`ValueError` if the body is not a result document.
        """
        with self._body() as handle:
            start = handle.tell()
            end = handle.seek(0, os.SEEK_END)
            handle.seek(max(start, end - _TAIL_BYTES))
            # a cut character can only open the tail, never end it
            tail = handle.read().decode("utf-8", errors="replace")
            handle.seek(start)
            return BenchmarkResult.summary_from_head(_pieces(handle), tail)

    def read(self) -> str:
        """The whole document, its digest checked again."""
        with self._body() as handle:
            body = handle.read()
        if hashlib.sha256(body).hexdigest() != self.sha256:
            raise CacheEntryError(
                f"cache entry {self.path} changed since it was verified")
        return body.decode("utf-8")


def _header_digest(line: bytes) -> Any:
    """The body digest an entry's header line names, or None."""
    try:
        return json.loads(line)["sha256"]
    except (ValueError, KeyError, TypeError):
        return None


def _verified_digest(handle: BinaryIO) -> str:
    """SHA-256 of the rest of *handle*, read a chunk at a time.

    Each chunk is also fed to an incremental UTF-8 decoder, which carries
    a character cut by a chunk's end over to the next chunk, so a body
    that is not UTF-8 raises :class:`UnicodeDecodeError` (a
    :class:`ValueError`).
    """
    digest = hashlib.sha256()
    decoder = codecs.getincrementaldecoder("utf-8")()
    for chunk in iter(partial(handle.read, CHUNK_BYTES), b""):
        digest.update(chunk)
        decoder.decode(chunk)
    decoder.decode(b"", final=True)
    return digest.hexdigest()


def _pieces(handle: BinaryIO) -> Iterator[str]:
    """The rest of *handle* as text, in reads that double in size."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    size = CHUNK_BYTES
    while True:
        chunk = handle.read(size)
        if not chunk:
            return
        yield decoder.decode(chunk)
        size *= 2


class ResultCache:
    """On-disk store mapping cell keys to verbatim result JSON."""

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory).expanduser()
        #: entries :meth:`get` found on disk and refused, so far
        self.corrupt = 0

    def _path(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[CacheEntry]:
        """The verified entry for *key*, or None on a miss.

        No entry file is a plain miss. An entry that is there but is not
        what :meth:`put` wrote — no header line, a header that is not a
        JSON object naming *key* and a digest, a body with another digest
        or one that is not UTF-8 — is a miss too, counted in
        :attr:`corrupt` (it will be overwritten by the re-run), never an
        error. The body is read in chunks of :data:`CHUNK_BYTES`, hashed
        and decoded as it passes, and not kept.
        """
        path = self._path(key)
        try:
            with path.open("rb") as handle:
                header = json.loads(handle.readline())
                if header["key"] != key:
                    raise ValueError("entry is another cell's")
                entry = CacheEntry(path, header["sha256"])
                if _verified_digest(handle) != entry.sha256:
                    raise ValueError("body is not the one put() wrote")
        except OSError:
            return None
        except (ValueError, KeyError, TypeError):
            self.corrupt += 1
            return None
        return entry

    def put(self, key: str, fields: Dict[str, Any],
            document: Union[str, Iterable[str]]) -> CacheEntry:
        """Store *document* under *key*, atomically and verbatim.

        *document* is the text, or pieces whose concatenation is the text
        (:meth:`~repro.core.results.BenchmarkResult.json_parts`). Pieces
        are written :data:`PUT_PARTS` at a time, each slice encoded and
        hashed as it goes, so the whole text never exists at once; the
        header is written first with a placeholder digest of the same
        length, which is overwritten once the body is in. A source that
        raises leaves no entry and no temporary file.
        """
        if isinstance(document, str):
            document = (document,)
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        header = json.dumps({"key": key, "fields": fields,
                             "sha256": _PLACEHOLDER}).encode("utf-8")
        # the digest is the header's last value: it ends '..."}'
        digest_at = len(header) - len(_PLACEHOLDER) - 2
        digest = hashlib.sha256()
        parts = iter(document)
        descriptor, temp_name = tempfile.mkstemp(
            dir=path.parent, prefix=f".{key[:8]}-", suffix=".tmp")
        try:
            with os.fdopen(descriptor, "wb") as handle:
                handle.write(header + b"\n")
                while True:
                    piece = list(islice(parts, PUT_PARTS))
                    if not piece:
                        break
                    chunk = "".join(piece).encode("utf-8")
                    digest.update(chunk)
                    handle.write(chunk)
                entry = CacheEntry(path, digest.hexdigest())
                handle.seek(digest_at)
                handle.write(entry.sha256.encode("ascii"))
            os.replace(temp_name, path)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise
        return entry
