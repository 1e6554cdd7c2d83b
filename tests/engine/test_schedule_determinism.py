"""Scheduling-order and memo on/off determinism.

The contract this suite locks in: discharge order is *advisory*.  Cost-model
order (``auto``), LPT order and the syntactic cheapest-first order must all
produce byte-identical ``table1/3/4(deterministic=True)`` renderings on the
fast corpus under both SAT backends — and the cross-obligation memo must be equally invisible: alphabets are always
built hermetically with their counter bill recorded and replayed, so turning
the reuse off changes wall-clock time only.

Cost hints come from a store warmed under the *other* backend: verdicts never
cross environment fingerprints (every obligation discharges cold), but the
recorded costs are advisory and environment-free — which is exactly the
situation the cost model exists for.
"""

import shutil

import pytest

from repro.evaluation.runner import run_evaluation
from repro.evaluation.tables import table1, table3, table4
from repro.store.obligation_store import ObligationStore
from repro.typecheck.checker import CheckerConfig

#: dpll runs order themselves by costs a cdcl-warmed store recorded, and vice
#: versa — proving the hints are used while every verdict stays cold.
_WARMING_BACKEND = {"dpll": "cdcl", "cdcl": "dpll"}


def _render(report):
    return "\n".join(
        render(report, deterministic=True) for render in (table1, table3, table4)
    )


@pytest.fixture(scope="module")
def cost_warmed_store(tmp_path_factory):
    """One store per warming backend, with every fast-corpus cost recorded."""
    paths = {}
    for backend in sorted(set(_WARMING_BACKEND.values())):
        path = tmp_path_factory.mktemp(f"cost-store-{backend}")
        store = ObligationStore(path)
        report = run_evaluation(
            include_slow=False, config=CheckerConfig(backend=backend), store=store
        )
        assert report.all_verified and report.all_negatives_rejected
        store.flush()
        paths[backend] = path
    return paths


@pytest.fixture(scope="module")
def reference_tables():
    """The serial, syntactic-order, store-less rendering per backend."""
    tables = {}
    for backend in ("dpll", "cdcl"):
        report = run_evaluation(
            include_slow=False,
            config=CheckerConfig(backend=backend, schedule="syntactic"),
        )
        assert report.all_verified and report.all_negatives_rejected
        tables[backend] = _render(report)
    return tables


@pytest.mark.parametrize("backend", ("dpll", "cdcl"))
@pytest.mark.parametrize("schedule", ("syntactic", "auto", "lpt"))
def test_every_ordering_matches_the_reference_tables(
    schedule, backend, cost_warmed_store, reference_tables, tmp_path
):
    store = None
    if schedule in ("auto", "lpt"):
        # a fresh copy per run: cost-ordered runs write entries of their own
        source = cost_warmed_store[_WARMING_BACKEND[backend]]
        path = tmp_path / "store"
        shutil.copytree(source, path)
        store = ObligationStore(path)
    report = run_evaluation(
        include_slow=False,
        config=CheckerConfig(backend=backend, schedule=schedule),
        store=store,
    )
    assert report.all_verified and report.all_negatives_rejected
    assert _render(report) == reference_tables[backend], (
        f"schedule={schedule} backend={backend} changed an obligation-derived counter"
    )


def test_cost_hints_are_actually_consulted(cost_warmed_store, tmp_path):
    """The cost-ordered leg must order by recorded history, not fall back."""
    from repro.suite.registry import all_benchmarks

    path = tmp_path / "store"
    shutil.copytree(cost_warmed_store["cdcl"], path)
    store = ObligationStore(path)
    bench = all_benchmarks(include_slow=False)[0]
    checker = bench.make_checker(
        CheckerConfig(backend="dpll", schedule="auto"), store=store
    )
    stats = bench.verify_all(checker)
    assert stats.all_verified
    engine = checker.obligation_engine
    assert engine.stats.cost_hints_used > 0, "no recorded cost was consulted"
    assert engine.stats.store_hits == 0, "verdicts must never cross backends"


def test_memo_off_matches_memo_on_byte_identical(reference_tables):
    """Reuse on/off may move wall-clock time only, never a counter."""
    report = run_evaluation(
        include_slow=False,
        config=CheckerConfig(schedule="syntactic", cross_obligation_memo=False),
    )
    assert report.all_verified and report.all_negatives_rejected
    assert _render(report) == reference_tables["dpll"]
