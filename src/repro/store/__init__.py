"""repro.store — persistent incremental verification.

The subsystem behind ``--store PATH``:

* :mod:`repro.store.fingerprint` — process-independent content addresses for
  terms, automata, obligations, specs and libraries;
* :mod:`repro.store.backends` — the on-disk layout (a JSONL directory with
  advisory locking, safe under concurrent writer processes);
* :mod:`repro.store.service` — :class:`~repro.store.service.StoreService`,
  the one implementation of the store's operations (lookup, append,
  dependency-tracked invalidation, compaction, the run log and GC) plus
  the lease-based work queue (:mod:`repro.store.queue`) that
  ``repro worker`` processes pull cold obligations from;
* :mod:`repro.store.obligation_store` — the session facade mapping
  (environment fingerprint, obligation fingerprint) to verdicts, witness
  traces and per-obligation discharge counters;
* :mod:`repro.store.client` — :class:`~repro.store.client.StoreClient`,
  the ops a session drives the service through, whatever the transport;
  a local path calls the service in-process
  (:class:`~repro.store.service.LocalStoreClient`);
* :mod:`repro.store.remote` — the HTTP transport, for the
  ``http://host:port`` URL of a ``repro store serve`` instance
  (:mod:`repro.store.server`).  Only a URL store imports it, so a local
  session loads no networking code.
"""

from .backends import JsonlStoreBackend
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
