"""Fixtures shared by the store tests.

``store_path`` is parametrised on the local store format, so every test
that takes it (directly or through a server fixture) carries the format in
its id, e.g. ``test_last_write_wins[jsonl]``.  The JSONL directory is the
one local format.
"""

import pytest

STORE_FORMATS = ("jsonl",)


@pytest.fixture(params=STORE_FORMATS)
def store_path(tmp_path):
    """A fresh store directory path; the store creates it on open."""
    return tmp_path / "store"
