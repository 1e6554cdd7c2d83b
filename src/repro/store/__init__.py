"""repro.store — persistent incremental verification.

The subsystem behind ``pymarple --incremental``:

* :mod:`repro.store.fingerprint` — process-independent content addresses for
  terms, automata, obligations, specs and libraries;
* :mod:`repro.store.backends` — the on-disk layout (a JSONL directory with
  advisory locking, safe under concurrent writer processes);
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

from .backends import JsonlStoreBackend
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
    "SCHEMA_VERSION",
    "JsonlStoreBackend",
    "MethodStoreCounts",
    "RemoteStoreBackend",
    "RemoteStoreError",
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
