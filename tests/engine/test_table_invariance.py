"""Deterministic tables do not depend on the store's other environments.

``table1/3/4(deterministic=True)`` on the fast corpus must render byte for
byte the same as a serial, store-less reference run:

* against a store warmed under *another* environment — verdicts never cross
  environment fingerprints (the only store hits are the cross-benchmark ones
  the run records for itself), while the environment-free recorded costs sit
  right next to them.  The other environment is a literal budget of 25,
  which the fast corpus never reaches, so both render the same tables.

The reference itself is pinned to ``fast_tables.golden``, the deterministic
tables as committed: a change that only moves work (a faster walk, a cheaper
cache) must render them byte for byte.  A change that moves a counter on
purpose regenerates the file with ``_render`` and says why.
"""

import difflib
import shutil
from pathlib import Path

import pytest

from repro.evaluation.runner import run_evaluation
from repro.evaluation.tables import table1, table3, table4
from repro.store.obligation_store import ObligationStore
from repro.typecheck.checker import CheckerConfig

ENVIRONMENTS = {"default": CheckerConfig(), "max_literals=25": CheckerConfig(max_literals=25)}

#: each environment runs against the store the other one warmed
_WARMING_ENVIRONMENT = {"default": "max_literals=25", "max_literals=25": "default"}


def _store_hits(report):
    return sum(diagnostic["engine"]["store_hits"] for diagnostic in report.diagnostics)


def _render(report):
    return "\n".join(
        render(report, deterministic=True) for render in (table1, table3, table4)
    )


@pytest.fixture(scope="module")
def warmed_store(tmp_path_factory):
    """Per environment: a store with every fast-corpus entry recorded, and
    the store hits that cold run answered from its own earlier entries."""
    warmed = {}
    for name, config in ENVIRONMENTS.items():
        path = tmp_path_factory.mktemp("store")
        store = ObligationStore(path)
        report = run_evaluation(include_slow=False, config=config, store=store)
        assert report.all_verified and report.all_negatives_rejected
        store.flush()
        warmed[name] = (path, _store_hits(report))
    return warmed


@pytest.fixture(scope="module")
def reference_tables():
    """The serial, store-less rendering."""
    report = run_evaluation(include_slow=False)
    assert report.all_verified and report.all_negatives_rejected
    return _render(report)


GOLDEN = Path(__file__).with_name("fast_tables.golden")


def test_reference_tables_match_the_golden_file(reference_tables):
    expected = GOLDEN.read_text()
    actual = reference_tables + "\n"
    if actual != expected:
        diff = difflib.unified_diff(
            expected.splitlines(keepends=True),
            actual.splitlines(keepends=True),
            fromfile=GOLDEN.name,
            tofile="this run",
        )
        pytest.fail("the deterministic tables moved:\n" + "".join(diff))


@pytest.mark.parametrize("environment", ENVIRONMENTS)
def test_other_environments_store_leaves_the_tables_unchanged(
    environment, warmed_store, reference_tables, tmp_path
):
    # a fresh copy per run: the run writes entries of its own
    path = tmp_path / "store"
    shutil.copytree(warmed_store[_WARMING_ENVIRONMENT[environment]][0], path)
    report = run_evaluation(
        include_slow=False,
        config=ENVIRONMENTS[environment],
        store=ObligationStore(path),
    )
    assert report.all_verified and report.all_negatives_rejected
    assert _store_hits(report) == warmed_store[environment][1], (
        "verdicts must never cross environments"
    )
    assert _render(report) == reference_tables, (
        f"a store warmed under another environment changed a counter under {environment}"
    )
