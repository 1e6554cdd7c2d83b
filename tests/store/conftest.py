"""Fixtures that run every store test against both persistence backends.

``store_backend`` pins the backend through ``REPRO_STORE_BACKEND`` rather
than through a path suffix, so everything the code under test opens on its
own — reloads, engines, forked writers and workers — lands on the same
backend as the test itself.  Tests that poke at one backend's on-disk layout construct
their store with an explicit ``backend=`` argument instead of these fixtures.
"""

import json
import sqlite3

import pytest

STORE_BACKENDS = ("jsonl", "sqlite")


@pytest.fixture(params=STORE_BACKENDS)
def store_backend(request, monkeypatch):
    monkeypatch.setenv("REPRO_STORE_BACKEND", request.param)
    return request.param


@pytest.fixture
def store_path(tmp_path, store_backend):
    """A fresh, unsuffixed store path: the backend flows from the environment."""
    return tmp_path / "store"


@pytest.fixture
def tamper_schema(store_backend):
    """Stamp an unknown schema version onto an existing store at ``path``."""

    def tamper(path):
        if store_backend == "jsonl":
            (path / "meta.json").write_text(
                json.dumps({"schema": "some-other-version"}) + "\n"
            )
        else:
            conn = sqlite3.connect(path)
            with conn:
                conn.execute(
                    "UPDATE meta SET value='some-other-version' WHERE key='schema'"
                )
            conn.close()

    return tamper
