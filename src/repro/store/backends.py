"""Persistence backends for the obligation store.

The store's persistence layer is a backend: a thin module that owns the
bytes on disk and nothing else — entry semantics, invalidation and GC live
in :class:`~repro.store.service.StoreService` (its ``op_*`` methods) and
session bookkeeping in :class:`~repro.store.obligation_store.ObligationStore`.
The service talks to its backend through three operations:

``load(wipe_mismatch)``
    Read everything (entries, run log, count of skipped corrupt records),
    discarding wholesale on a schema-tag mismatch.
``append_entries(entries)``
    Durably append a batch.  Atomic with respect to concurrent appenders and
    rewriters: a reader can never observe a torn entry.
``update(fn, entries=, runs=)``
    The read-modify-rewrite primitive behind the service's ``compact``,
    ``invalidate``, ``commit_run`` and ``gc``.  The backend takes an
    *exclusive* lock, re-reads the **current** on-disk state — not the
    caller's possibly stale open-time snapshot — applies ``fn`` to it, and
    persists the result atomically.  This is what makes two concurrent processes unable to
    silently drop each other's entries: any state another writer appended
    between our ``load()`` and the rewrite is re-read under the lock and
    flows through ``fn``.

:class:`JsonlStoreBackend` is the one local layout: a directory of JSON
lines, safe under concurrent writers.  Every append holds an advisory
``flock`` on ``<dir>/.lock`` and writes the pre-joined batch to the end of
the log, and every rewrite goes through tmp-file + ``fsync`` +
``os.replace`` (+ directory fsync), so a crash mid-compact can never
truncate the store.  :func:`open_backend` hands an ``http://``/``https://``
store path to the remote client (:mod:`repro.store.remote`) instead.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence

try:  # pragma: no cover - always present on POSIX, the supported platform
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None  # type: ignore[assignment]

from ..obs import trace

#: Store layout version; entries under another tag are discarded on open.
SCHEMA_VERSION = "pymarple-store-v3"

_ENTRIES = "entries.jsonl"
_META = "meta.json"
_RUNS = "runs.jsonl"
_LOCK = ".lock"


@dataclass
class StoreEntry:
    """One discharged obligation: verdict, witness trace and counter dicts."""

    env: str
    fp: str
    included: bool
    counterexample: Optional[list[str]] = None
    error: Optional[str] = None
    solver_stats: dict = field(default_factory=dict)
    inclusion_stats: dict = field(default_factory=dict)
    scope: str = ""
    method: str = ""
    spec: str = ""
    library: str = ""
    kind: str = ""
    provenance: str = ""
    #: the discharge cost record (``{"wall": seconds, ...}``) behind the
    #: dispatch queue's LPT order.  Deliberately *outside* the content
    #: address and the deterministic tables: it is a measurement, not a
    #: semantic fact — advisory across environments and free to vary run to
    #: run.
    cost: dict = field(default_factory=dict)

    @property
    def key(self) -> tuple[str, str]:
        return (self.env, self.fp)

    @property
    def wall_cost(self) -> Optional[float]:
        """The recorded wall-clock discharge cost in seconds, if any."""
        wall = self.cost.get("wall")
        return float(wall) if isinstance(wall, (int, float)) else None

    def to_record(self) -> dict:
        """The JSON-able record shape shared by the log lines and the wire."""
        return {
            "env": self.env,
            "fp": self.fp,
            "inc": self.included,
            "cex": self.counterexample,
            "err": self.error,
            "sol": self.solver_stats,
            "fa": self.inclusion_stats,
            "scope": self.scope,
            "method": self.method,
            "spec": self.spec,
            "lib": self.library,
            "kind": self.kind,
            "prov": self.provenance,
            "cost": self.cost,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_record(), sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "StoreEntry":
        return cls.from_record(json.loads(line))

    @classmethod
    def from_record(cls, obj: object) -> "StoreEntry":
        if not isinstance(obj, dict):
            raise ValueError(f"store entry must be a JSON object, got {type(obj).__name__}")
        return cls(
            env=obj["env"],
            fp=obj["fp"],
            included=bool(obj["inc"]),
            counterexample=obj.get("cex"),
            error=obj.get("err"),
            solver_stats=obj.get("sol") or {},
            inclusion_stats=obj.get("fa") or {},
            scope=obj.get("scope", ""),
            method=obj.get("method", ""),
            spec=obj.get("spec", ""),
            library=obj.get("lib", ""),
            kind=obj.get("kind", ""),
            provenance=obj.get("prov", ""),
            cost=obj.get("cost") or {},
        )


#: Exceptions a corrupt persisted record may raise while being decoded; the
#: skip-and-count tolerance paths catch exactly these (a torn multi-byte
#: UTF-8 sequence raises UnicodeDecodeError, a ValueError subclass; a JSON
#: value of the wrong shape raises KeyError or TypeError).
ENTRY_DECODE_ERRORS = (ValueError, KeyError, TypeError)


@dataclass
class LoadedState:
    """What a backend read: live entries, the run log, skipped corrupt lines."""

    entries: dict[tuple[str, str], StoreEntry]
    runs: list[dict]
    skipped: int = 0


def _decode_entry_lines(raw: bytes) -> tuple[dict[tuple[str, str], StoreEntry], int]:
    """Parse a JSON-lines blob; last line per key wins, corrupt lines skipped.

    Decoding happens per line (bytes → UTF-8 → JSON) so one torn line — a
    killed writer's partial append — costs exactly that line, never the
    whole file.
    """
    entries: dict[tuple[str, str], StoreEntry] = {}
    skipped = 0
    for line in raw.splitlines():
        if not line.strip():
            continue
        try:
            entry = StoreEntry.from_json(line.decode("utf-8"))
        except ENTRY_DECODE_ERRORS:
            skipped += 1
            continue
        entries[entry.key] = entry
    return entries, skipped


def _decode_run_lines(raw: bytes) -> list[dict]:
    runs: list[dict] = []
    for line in raw.splitlines():
        if not line.strip():
            continue
        try:
            record = json.loads(line.decode("utf-8"))
        except ValueError:
            continue
        if (
            isinstance(record, dict)
            and isinstance(record.get("touched"), list)
            and isinstance(record.get("run"), int)
        ):
            runs.append(record)
    return runs


@contextmanager
def _flocked(lock_path: Path) -> Iterator[None]:
    """Hold an exclusive advisory lock on ``lock_path``.

    Best-effort no-op where ``fcntl`` is unavailable (non-POSIX) — there the
    store degrades to its historical single-writer guarantees.
    """
    if fcntl is None:  # pragma: no cover
        yield
        return
    fd = os.open(lock_path, os.O_RDWR | os.O_CREAT, 0o644)
    try:
        # spanned separately from the critical section: under writer
        # contention this is pure queueing time, the number the trace needs
        # to distinguish "store is slow" from "store is fought over"
        with trace.span("store.lock_wait", cat="store"):
            fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        fcntl.flock(fd, fcntl.LOCK_UN)
        os.close(fd)


def _fsync_dir(path: Path) -> None:
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - e.g. platforms without dir fds
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover
        pass
    finally:
        os.close(fd)


def _write_all(fd: int, data: bytes) -> None:
    """``os.write`` until every byte is down: POSIX lets one call return
    short (a full disk, a signal), and a short write here is a truncated
    store."""
    view = memoryview(data)
    while view:
        written = os.write(fd, view)
        if not written:
            raise OSError(f"write made no progress with {len(view)} bytes left")
        view = view[written:]


def _atomic_write(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` so a crash leaves either old or new bytes.

    The tmp file is fsynced *before* ``os.replace`` — without it a crash
    between the (atomic) rename and the data reaching disk can surface the
    new inode empty, truncating the store.
    """
    tmp = path.with_name(path.name + ".tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        _write_all(fd, data)
        os.fsync(fd)
    finally:
        os.close(fd)
    os.replace(tmp, path)
    _fsync_dir(path.parent)


def append_jsonl_batch(path: Path, lines: Sequence[str]) -> None:
    """Durably append pre-serialised lines as one joined batch.

    Callers that share the file serialise through the store lock, so the
    batch's bytes land contiguously even when the kernel takes them in
    several ``write()`` calls.
    """
    if not lines:
        return
    data = "".join(line + "\n" for line in lines).encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        _write_all(fd, data)
        os.fsync(fd)
    finally:
        os.close(fd)


class JsonlStoreBackend:
    """The directory-of-JSON-lines layout, with advisory-locked writes.

    ``<dir>/meta.json`` carries the schema tag, ``<dir>/entries.jsonl`` the
    append-only entry log (last line per key wins), ``<dir>/runs.jsonl`` the
    GC reference trail and ``<dir>/.lock`` the advisory lock every append
    and rewrite holds.
    """

    name = "jsonl"

    def __init__(self, path: os.PathLike | str) -> None:
        self.path = Path(path)
        if self.path.is_file():
            raise ValueError(
                f"store path {str(self.path)!r} is a file, not a store directory"
            )

    def _lock(self):
        self.path.mkdir(parents=True, exist_ok=True)
        return _flocked(self.path / _LOCK)

    def _read_entries(self) -> tuple[dict[tuple[str, str], StoreEntry], int]:
        entries_path = self.path / _ENTRIES
        if not entries_path.exists():
            return {}, 0
        return _decode_entry_lines(entries_path.read_bytes())

    def _read_runs(self) -> list[dict]:
        runs_path = self.path / _RUNS
        if not runs_path.exists():
            return []
        return _decode_run_lines(runs_path.read_bytes())

    def load(self, *, wipe_mismatch: bool = True) -> LoadedState:
        with self._lock():
            meta_path = self.path / _META
            schema: Optional[str] = None
            if meta_path.exists():
                try:
                    schema = json.loads(meta_path.read_text()).get("schema")
                except (OSError, ValueError):
                    schema = None
            if schema != SCHEMA_VERSION:
                # Unknown or missing schema: never reinterpret old entries
                if not wipe_mismatch:
                    return LoadedState({}, [])
                for name in (_ENTRIES, _RUNS):
                    stale = self.path / name
                    if stale.exists():
                        stale.unlink()
                _atomic_write(
                    meta_path, (json.dumps({"schema": SCHEMA_VERSION}) + "\n").encode()
                )
                return LoadedState({}, [])
            entries, skipped = self._read_entries()
            runs = self._read_runs()
            return LoadedState(entries, runs, skipped)

    def append_entries(self, entries: Sequence[StoreEntry]) -> None:
        if not entries:
            return
        with self._lock():
            append_jsonl_batch(self.path / _ENTRIES, [e.to_json() for e in entries])

    def update(
        self,
        fn: Callable[
            [dict[tuple[str, str], StoreEntry], list[dict]],
            tuple[dict[tuple[str, str], StoreEntry], list[dict]],
        ],
        *,
        entries: bool = True,
        runs: bool = True,
    ) -> LoadedState:
        """Exclusive read-modify-rewrite of the current on-disk state.

        ``fn`` receives the state as re-read *under the lock* — never the
        caller's open-time snapshot — so entries appended by another process
        since then survive the rewrite.  ``entries=False``/``runs=False``
        skip reading and rewriting that half (``fn`` then sees it empty).
        ``fn`` returning ``None`` means "nothing changed": the state read
        under the lock is returned and nothing is rewritten.
        """
        with self._lock():
            disk_entries: dict[tuple[str, str], StoreEntry] = {}
            skipped = 0
            if entries:
                disk_entries, skipped = self._read_entries()
            disk_runs = self._read_runs() if runs else []
            changed = fn(disk_entries, disk_runs)
            if changed is None:
                return LoadedState(disk_entries, disk_runs, skipped)
            new_entries, new_runs = changed
            if entries:
                _atomic_write(
                    self.path / _ENTRIES,
                    "".join(e.to_json() + "\n" for e in new_entries.values()).encode(),
                )
            if runs:
                runs_path = self.path / _RUNS
                if new_runs:
                    _atomic_write(
                        runs_path,
                        "".join(
                            json.dumps(r, sort_keys=True) + "\n" for r in new_runs
                        ).encode(),
                    )
                elif runs_path.exists():
                    runs_path.unlink()
            return LoadedState(new_entries, new_runs, skipped)

    def close(self) -> None:
        pass


def is_store_url(path: os.PathLike | str) -> bool:
    """Whether a store path names a ``repro store serve`` instance."""
    return str(path).startswith(("http://", "https://"))


def open_backend(path: os.PathLike | str):
    """The backend for a store path: a remote client for an ``http(s)://``
    URL, the JSONL directory layout for anything else."""
    if is_store_url(path):
        from .remote import RemoteStoreBackend  # avoid a module cycle

        return RemoteStoreBackend(str(path))
    return JsonlStoreBackend(path)
