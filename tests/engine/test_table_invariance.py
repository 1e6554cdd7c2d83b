"""Deterministic tables do not depend on the store's other environments or
on alphabet reuse.

``table1/3/4(deterministic=True)`` on the fast corpus must render byte for
byte the same as a serial, store-less reference run:

* against a store warmed under the *other* SAT backend — verdicts never cross
  environment fingerprints (the only store hits are the cross-benchmark ones
  the run records for itself), while the environment-free recorded costs sit
  right next to them;
* with the cross-obligation alphabet memo switched off — alphabets are always
  built hermetically with their counter bill recorded and replayed, so the
  reuse changes wall-clock time only.
"""

import functools
import shutil

import pytest

from repro.evaluation.runner import run_evaluation
from repro.evaluation.tables import table1, table3, table4
from repro.sfa.alphabet import AlphabetMemo
from repro.store.obligation_store import ObligationStore
from repro.typecheck.checker import CheckerConfig

#: each backend runs against the store the other backend warmed
_WARMING_BACKEND = {"dpll": "cdcl", "cdcl": "dpll"}


def _store_hits(report):
    return sum(diagnostic["engine"]["store_hits"] for diagnostic in report.diagnostics)


def _render(report):
    return "\n".join(
        render(report, deterministic=True) for render in (table1, table3, table4)
    )


@pytest.fixture(scope="module")
def warmed_store(tmp_path_factory):
    """Per backend: a store with every fast-corpus entry recorded, and the
    store hits that cold run answered from its own earlier entries."""
    warmed = {}
    for backend in sorted(_WARMING_BACKEND.values()):
        path = tmp_path_factory.mktemp(f"store-{backend}")
        store = ObligationStore(path)
        report = run_evaluation(
            include_slow=False, config=CheckerConfig(backend=backend), store=store
        )
        assert report.all_verified and report.all_negatives_rejected
        store.flush()
        warmed[backend] = (path, _store_hits(report))
    return warmed


@pytest.fixture(scope="module")
def reference_tables():
    """The serial, store-less rendering per backend."""
    tables = {}
    for backend in ("dpll", "cdcl"):
        report = run_evaluation(include_slow=False, config=CheckerConfig(backend=backend))
        assert report.all_verified and report.all_negatives_rejected
        tables[backend] = _render(report)
    return tables


@pytest.mark.parametrize("backend", ("dpll", "cdcl"))
def test_other_backends_store_leaves_the_tables_unchanged(
    backend, warmed_store, reference_tables, tmp_path
):
    # a fresh copy per run: the run writes entries of its own
    path = tmp_path / "store"
    shutil.copytree(warmed_store[_WARMING_BACKEND[backend]][0], path)
    report = run_evaluation(
        include_slow=False,
        config=CheckerConfig(backend=backend),
        store=ObligationStore(path),
    )
    assert report.all_verified and report.all_negatives_rejected
    assert _store_hits(report) == warmed_store[backend][1], (
        "verdicts must never cross backends"
    )
    assert _render(report) == reference_tables[backend], (
        f"a store warmed under another backend changed a counter under {backend}"
    )


def test_memo_off_matches_memo_on_byte_identical(reference_tables, monkeypatch):
    """Reuse on/off may move wall-clock time only, never a counter."""
    monkeypatch.setattr(
        "repro.typecheck.checker.AlphabetMemo",
        functools.partial(AlphabetMemo, enabled=False),
    )
    report = run_evaluation(include_slow=False, config=CheckerConfig(backend="dpll"))
    assert report.all_verified and report.all_negatives_rejected
    caches = report.cache_totals()
    assert caches["alphabet_memo_builds"] > 0
    assert caches["alphabet_memo_replays"] == 0, "the memo must really be off"
    assert _render(report) == reference_tables["dpll"]
