"""Cross-backend differential suite: every backend is one oracle of many.

The lazy SMT loop may run on the DPLL core or the CDCL core — and the whole
reproduction's output must not care:

* every fast-corpus obligation discharged under ``dpll`` and ``cdcl`` yields
  the same verdict *and* the same witness trace;
* the deterministic Tables 1/3/4 are byte-identical across backends once the
  solver-internal columns (#SAT, #Confl) are dropped — those are per-backend
  by design and keep their own columns;
* a store warmed under one backend is invisible to another (environment
  fingerprints differ), so warm-start counters can never cross-contaminate.

Together with ``test_backend_fuzz.py`` this is what turns the single
hand-rolled oracle into N mutually-checking ones.
"""

import pytest

from repro.evaluation.runner import run_evaluation
from repro.evaluation.tables import table1, table3, table4
from repro.smt.backends import known_backends
from repro.suite.registry import all_benchmarks
from repro.typecheck.checker import CheckerConfig

#: Every registered backend is cross-checked against the dpll reference —
#: registering a new backend enrolls it here automatically.
BACKEND_PAIRS = [
    ("dpll", candidate) for candidate in known_backends() if candidate != "dpll"
]

_FAST_KEYS = [bench.key for bench in all_benchmarks(include_slow=False)]


def _bench(key):
    return next(b for b in all_benchmarks(include_slow=False) if b.key == key)


# ---------------------------------------------------------------------------
# Per-benchmark: verdicts and witness traces agree obligation for obligation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("reference,candidate", BACKEND_PAIRS)
@pytest.mark.parametrize("key", _FAST_KEYS)
def test_suite_verification_agrees(key, reference, candidate):
    bench = _bench(key)
    outcomes = {}
    for backend in (reference, candidate):
        checker = bench.make_checker(CheckerConfig(backend=backend))
        stats = bench.verify_all(checker)
        outcomes[backend] = [
            (
                result.method,
                result.verified,
                result.error,
                result.counterexample,
                # obligation-derived counters must match too — only the
                # solver-internal ones (#SAT/#Confl) may differ
                result.stats.obligations,
                result.stats.fa_inclusion_checks,
                result.stats.prod_states,
                result.stats.average_fa_size,
                result.stats.smt_cache_hits,
            )
            for result in stats.method_results
        ]
    assert outcomes[reference] == outcomes[candidate]


@pytest.mark.parametrize("reference,candidate", BACKEND_PAIRS)
@pytest.mark.parametrize("key", _FAST_KEYS)
def test_suite_negative_variants_agree(key, reference, candidate):
    """Known-bad variants are rejected identically, witness traces included."""
    bench = _bench(key)
    if not bench.negative_variants:
        pytest.skip(f"{key} has no negative variants")
    for variant in bench.negative_variants:
        outcomes = {}
        for backend in (reference, candidate):
            checker = bench.make_checker(CheckerConfig(backend=backend))
            result = bench.verify_negative_variant(variant, checker)
            outcomes[backend] = (result.verified, result.error, result.counterexample)
        assert not outcomes[reference][0], f"{variant} must be rejected"
        assert outcomes[reference] == outcomes[candidate]


# ---------------------------------------------------------------------------
# The acceptance bar: backend-invariant tables are byte-identical
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def per_backend_reports():
    """One fast-corpus evaluation per registered backend (negatives skipped:
    the per-benchmark tests above already compare them trace for trace)."""
    return {
        backend: run_evaluation(
            include_slow=False,
            config=CheckerConfig(backend=backend),
            check_negative_variants=False,
        )
        for backend in known_backends()
    }


def test_backend_invariant_tables_are_byte_identical(per_backend_reports):
    reference = per_backend_reports["dpll"]
    assert reference.all_verified
    for backend, report in per_backend_reports.items():
        assert report.all_verified, backend
        for render in (table1, table3, table4):
            assert render(report, deterministic=True, backend_invariant=True) == render(
                reference, deterministic=True, backend_invariant=True
            ), backend


def test_solver_internal_counters_have_their_own_columns(per_backend_reports):
    """#SAT/#Confl stay visible in the deterministic render — they are
    per-backend columns, not dropped data."""
    report = per_backend_reports["dpll"]

    def header(rendering):
        return [cell.strip() for cell in rendering.splitlines()[0].split(" | ")]

    deterministic = header(table3(report, deterministic=True))
    assert "#SAT" in deterministic and "#Confl" in deterministic
    invariant = header(table3(report, deterministic=True, backend_invariant=True))
    assert "#SAT" not in invariant and "#Confl" not in invariant
    # and the obligation-derived columns survive the backend-invariant render
    for column in ("#Obl", "#Inc", "#Prod", "#SATcache"):
        assert column in invariant
