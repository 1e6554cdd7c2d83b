"""Tracing is strictly volatile: traced runs render byte-identical tables.

The acceptance contract of the observability layer: installing a tracer
may add spans and wall-clock time but must never move a counter in the deterministic renderings of Tables 1/3/4.  The
integration leg also locks in what a real traced run must contain:
schema-valid spans, per-obligation fingerprints, and ≥95% of the main
process's wall time attributed to non-structural spans.
"""

import os

import pytest

from repro.evaluation.runner import run_evaluation
from repro.evaluation.tables import table1, table3, table4
from repro.obs import trace
from repro.obs.report import analyze_trace
from repro.obs.schema import validate_trace
from repro.store.obligation_store import ObligationStore


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
    """The reference rendering, tracing off."""
    trace.uninstall()
    report = run_evaluation(include_slow=False)
    assert report.all_verified and report.all_negatives_rejected
    return _render(report)


#: one leftover value per retired knob: the discharge modes before the single
#: decider, the in-engine fork pool before the lease queue, the serial
#: ordering policy and the memo toggle before emit order and an always-on memo
_STALE = {
    "discharge": ("REPRO_DISCHARGE", "compiled"),
    "workers": ("REPRO_WORKERS", "4"),
    "schedule": ("REPRO_SCHEDULE", "chaotic"),
    "memo": ("REPRO_MEMO", "0"),
}


@pytest.fixture(scope="module")
def stale_traced_run(request):
    """One traced run with every stale variable set, per old value of the
    retired SAT-core selector ``REPRO_BACKEND``.

    Nothing reads any of the variables, so one run sets them all at once;
    it records the environment it saw, for the per-variable tests below.
    """
    trace.uninstall()
    with pytest.MonkeyPatch.context() as patch:
        for name, value in _STALE.values():
            patch.setenv(name, value)
        patch.setenv("REPRO_BACKEND", request.param)
        seen = dict(os.environ)
        with trace.session() as tracer:
            report = run_evaluation(include_slow=False)
    trace.uninstall()
    return seen, report, tracer


@pytest.mark.parametrize("stale_traced_run", ("dpll", "cdcl"), indirect=True)
@pytest.mark.parametrize("stale", tuple(_STALE))
def test_traced_tables_are_byte_identical_to_untraced(
    stale, stale_traced_run, untraced_tables
):
    # A variable left over from a retired knob must be inert: the traced
    # run under a stale setting renders the reference tables computed with
    # the variables unset.
    seen, report, tracer = stale_traced_run
    name, value = _STALE[stale]
    assert seen[name] == value
    assert report.all_verified and report.all_negatives_rejected
    assert _render(report) == untraced_tables, (
        f"tracing or a stale {name}={value}, REPRO_BACKEND={seen['REPRO_BACKEND']} "
        "changed a deterministic counter"
    )
    assert tracer.spans, "the traced run must actually have recorded spans"


@pytest.fixture(scope="module")
def traced_run():
    """One traced serial fast-corpus run, normalised like a file."""
    trace.uninstall()
    with trace.session() as tracer:
        report = run_evaluation(include_slow=False)
    assert report.all_verified
    return {
        "meta": tracer.meta_record(),
        "spans": tracer.spans,
        "counters": tracer.counters,
    }


def test_traced_run_is_schema_valid(traced_run):
    assert validate_trace(traced_run) == []


def test_per_obligation_spans_are_keyed_by_store_fingerprint(traced_run):
    fingerprints = {
        span["args"]["obligation_fp"]
        for span in traced_run["spans"]
        if span.get("args", {}).get("obligation_fp")
    }
    assert len(fingerprints) > 10, "discharge spans must carry store fingerprints"
    assert all(len(fp) == 32 for fp in fingerprints), "fingerprint = store digest"


def test_every_recorded_store_entry_has_its_own_discharge_span(tmp_path):
    """A traced cold run against a fresh store: the spans' fingerprints are
    exactly the entries the store recorded, so every fingerprint in the
    store resolves to the span (and the wall time) of its own discharge."""
    store = ObligationStore(tmp_path / "store")
    with trace.session() as tracer:
        report = run_evaluation(include_slow=False, store=store)
    assert report.all_verified and report.all_negatives_rejected
    recorded = {entry.fp for entry in store}
    spans = [
        span["args"]["obligation_fp"]
        for span in tracer.spans
        if span.get("args", {}).get("obligation_fp")
    ]
    assert recorded, "a cold run must record entries"
    assert len(spans) == len(recorded), "one discharge span per recorded obligation"
    assert set(spans) == recorded


def test_coverage_of_a_traced_run_meets_the_acceptance_bar(traced_run):
    summary = analyze_trace(traced_run)
    assert summary["wall"] > 0
    assert summary["coverage"] >= 0.95, (
        f"only {summary['coverage']:.1%} of wall time is attributed to "
        "non-structural spans (acceptance bar: 95%)"
    )
