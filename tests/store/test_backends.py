"""Backend selection and the directory layout's durability corners."""

import json
import os

import pytest

from repro.store import JsonlStoreBackend, RemoteStoreBackend
from repro.store.backends import open_backend
from repro.store.obligation_store import ObligationStore, StoreEntry


def _entry(fp, *, included=True):
    return StoreEntry(
        env="env1",
        fp=fp,
        included=included,
        counterexample=None if included else ["put(a)", "put(a)"],
        solver_stats={"queries": 3, "cache_hits": 1},
        inclusion_stats={"fa_inclusion_checks": 1},
        scope="Set/KVStore",
        method="insert",
        spec="s1",
        library="l1",
        kind="postcondition",
        provenance="insert: postcondition",
        cost={"wall": 0.25},
    )


# -- selection ---------------------------------------------------------------------


def test_path_syntax_selects_the_backend(tmp_path):
    for name in ("fresh", "store.db", "sqlite:plain"):
        assert isinstance(open_backend(tmp_path / name), JsonlStoreBackend)
    remote = open_backend("http://127.0.0.1:1/")
    assert isinstance(remote, RemoteStoreBackend)
    assert remote.path == "http://127.0.0.1:1"


def test_backends_reject_a_mismatched_path_shape(tmp_path):
    existing_file = tmp_path / "file"
    existing_file.touch()
    with pytest.raises(ValueError, match="file"):
        JsonlStoreBackend(existing_file)


# -- durability corners ------------------------------------------------------------


def test_leftover_tmp_file_from_a_crash_is_harmless(tmp_path):
    store = ObligationStore(tmp_path / "store")
    store.record(_entry("fp1"))
    store.flush()
    # a writer killed between writing the tmp file and os.replace leaves this
    (tmp_path / "store" / "entries.jsonl.tmp").write_bytes(b'{"half": ')

    reloaded = ObligationStore(tmp_path / "store")
    assert {e.fp for e in open_backend(tmp_path / "store").load().entries.values()} == {"fp1"}
    assert reloaded.summary()["skipped"] == 0
    reloaded.compact()  # the next rewrite simply replaces the leftover
    assert json.loads(
        (tmp_path / "store" / "entries.jsonl").read_text().splitlines()[0]
    )["fp"] == "fp1"


def test_short_writes_never_truncate_the_store(tmp_path, monkeypatch):
    """A ``write()`` that takes only part of its buffer must be resumed.

    POSIX lets ``os.write`` return short (a filling disk, a signal); a
    compaction that ignored the count fsynced a truncated log and
    ``os.replace``d it over the good one.
    """
    store = ObligationStore(tmp_path / "store")
    for i in range(50):
        store.record(_entry(f"fp{i:02d}"))
    real_write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: real_write(fd, bytes(data[:4096])))
    store.flush()  # the append path
    assert len(ObligationStore(tmp_path / "store")) == 50
    store.record(_entry("fp-late", included=False))
    store.compact()  # the rewrite path
    reloaded = ObligationStore(tmp_path / "store")
    assert len(reloaded) == 51
    assert reloaded.summary()["skipped"] == 0
