"""Tracing is strictly volatile: traced runs render byte-identical tables.

The acceptance contract of the observability layer: installing a tracer —
across every SAT backend and worker count — may add spans
and wall-clock time but must never move a counter in the deterministic
renderings of Tables 1/3/4.  The integration leg also locks in what a real
traced run must contain: schema-valid spans, per-obligation fingerprints,
worker spans under a pool, and ≥95% of the main process's wall time
attributed to non-structural spans.
"""

import pytest

from repro.evaluation.runner import run_evaluation
from repro.evaluation.tables import table1, table3, table4
from repro.obs import trace
from repro.obs.report import analyze_trace
from repro.obs.schema import validate_trace
from repro.typecheck.checker import CheckerConfig


def _render(report):
    return "\n".join(
        render(report, deterministic=True) for render in (table1, table3, table4)
    )


@pytest.fixture(autouse=True)
def no_leaked_tracer():
    trace.uninstall()
    yield
    trace.uninstall()


@pytest.fixture(scope="module")
def untraced_tables():
    """Reference renderings per backend, tracing off."""
    trace.uninstall()
    tables = {}
    for backend in ("dpll", "cdcl"):
        report = run_evaluation(include_slow=False, config=CheckerConfig(backend=backend))
        assert report.all_verified and report.all_negatives_rejected
        tables[backend] = _render(report)
    return tables


@pytest.mark.parametrize("backend", ("dpll", "cdcl"))
@pytest.mark.parametrize("workers", (1, 4))
@pytest.mark.parametrize("legacy_mode", ("lazy", "batch", "compiled"))
def test_traced_tables_are_byte_identical_to_untraced(
    legacy_mode, workers, backend, untraced_tables, monkeypatch
):
    # A ``REPRO_DISCHARGE`` left over from before the single decider must be
    # inert: the traced run under any stale setting renders the reference
    # tables computed with the variable unset.
    monkeypatch.setenv("REPRO_DISCHARGE", legacy_mode)
    with trace.session() as tracer:
        report = run_evaluation(
            include_slow=False,
            config=CheckerConfig(backend=backend, workers=workers),
        )
    assert report.all_verified and report.all_negatives_rejected
    assert _render(report) == untraced_tables[backend], (
        f"tracing or a stale REPRO_DISCHARGE={legacy_mode} changed a "
        f"deterministic counter under workers={workers} backend={backend}"
    )
    assert tracer.spans, "the traced run must actually have recorded spans"


@pytest.fixture(scope="module")
def traced_pool_run():
    """One traced fast-corpus run on a 4-worker pool, normalised like a file."""
    trace.uninstall()
    with trace.session() as tracer:
        report = run_evaluation(include_slow=False, config=CheckerConfig(workers=4))
    assert report.all_verified
    tracer.counters = {"caches": report.cache_totals()}
    return {
        "meta": tracer.meta_record(),
        "spans": tracer.spans,
        "counters": tracer.counters,
    }


def test_traced_run_is_schema_valid(traced_pool_run):
    assert validate_trace(traced_pool_run) == []


def test_worker_spans_travel_home_under_a_pool(traced_pool_run):
    root_pid = traced_pool_run["meta"]["pid"]
    worker_spans = [
        span for span in traced_pool_run["spans"] if span["pid"] != root_pid
    ]
    assert worker_spans, "pool workers recorded no spans"
    assert {span["name"] for span in worker_spans} >= {"discharge.group"}


def test_per_obligation_spans_are_keyed_by_store_fingerprint(traced_pool_run):
    fingerprints = {
        span["args"]["obligation_fp"]
        for span in traced_pool_run["spans"]
        if span.get("args", {}).get("obligation_fp")
    }
    assert len(fingerprints) > 10, "discharge spans must carry store fingerprints"
    assert all(len(fp) == 32 for fp in fingerprints), "fingerprint = store digest"


def test_coverage_of_a_traced_run_meets_the_acceptance_bar(traced_pool_run):
    summary = analyze_trace(traced_pool_run)
    assert summary["wall"] > 0
    assert summary["coverage"] >= 0.95, (
        f"only {summary['coverage']:.1%} of wall time is attributed to "
        "non-structural spans (acceptance bar: 95%)"
    )
