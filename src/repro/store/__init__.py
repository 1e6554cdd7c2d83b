"""repro.store — persistent incremental verification.

The subsystem behind ``pymarple --incremental``:

* :mod:`repro.store.fingerprint` — process-independent content addresses for
  terms, automata, obligations, specs and libraries;
* :mod:`repro.store.backends` — the pluggable persistence backends (JSONL
  directory with advisory locking, or a WAL-mode SQLite file), both safe
  under concurrent writer processes, plus lossless migration between them;
* :mod:`repro.store.obligation_store` — the store facade mapping
  (environment fingerprint, obligation fingerprint) to verdicts, witness
  traces and per-obligation discharge counters, with dependency-tracked
  invalidation;
* :mod:`repro.store.remote` / :mod:`repro.store.server` — the shared-cache
  service: ``repro store serve`` wraps a local backend behind JSON-over-HTTP
  and :class:`~repro.store.remote.RemoteStoreBackend` is the client a
  ``--store http://host:port`` URL resolves to;
* :mod:`repro.store.queue` — the lease-based work queue the server hands
  cold obligations to ``repro worker`` processes through.
"""

from .backends import (
    KNOWN_STORE_BACKENDS,
    JsonlStoreBackend,
    SqliteStoreBackend,
    migrate_store,
    resolve_store_backend,
)
from .remote import RemoteStoreBackend, RemoteStoreError
from .fingerprint import (
    environment_fingerprint,
    library_digest,
    obligation_digest,
    sfa_digest,
    spec_digest,
    term_digest,
)
from .obligation_store import (
    SCHEMA_VERSION,
    MethodStoreCounts,
    ObligationStore,
    StoreContext,
    StoreEntry,
)

__all__ = [
    "KNOWN_STORE_BACKENDS",
    "SCHEMA_VERSION",
    "JsonlStoreBackend",
    "MethodStoreCounts",
    "RemoteStoreBackend",
    "RemoteStoreError",
    "SqliteStoreBackend",
    "migrate_store",
    "resolve_store_backend",
    "ObligationStore",
    "StoreContext",
    "StoreEntry",
    "environment_fingerprint",
    "library_digest",
    "obligation_digest",
    "sfa_digest",
    "spec_digest",
    "term_digest",
]
