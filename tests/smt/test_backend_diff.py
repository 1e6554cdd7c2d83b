"""Cross-core differential suite: the DPLL core against the CDCL oracle.

The lazy SMT loop runs on the DPLL core; ``sat_oracle.py`` keeps an
independent CDCL core, swapped in by :func:`use_cdcl_core`.  The
reproduction's answers must not depend on which core searched for them:

* every fast-corpus obligation discharged under either core yields the same
  verdict *and* the same witness trace;
* the deterministic Tables 1/3/4 agree cell for cell across the cores once
  the solver-internal columns (#SAT, #Confl) are dropped — which model a
  core returns steers the guided enumeration's branching, so those two
  legitimately differ between the cores.

Together with ``test_backend_fuzz.py`` this is what turns the single
hand-rolled core into two mutually-checking ones.
"""

import pytest

from repro.evaluation.runner import run_evaluation
from repro.evaluation.tables import table1, table3, table4
from repro.smt import solver as solver_module
from repro.suite.registry import all_benchmarks
from sat_oracle import CdclSolver, use_cdcl_core

#: the production core is the reference, the oracle the candidate
CORE_PAIRS = [("dpll", "cdcl")]

#: counters that follow the core's search, not the obligations
SOLVER_INTERNAL_COLUMNS = ("#SAT", "#Confl")

_FAST_KEYS = [bench.key for bench in all_benchmarks(include_slow=False)]


def _bench(key):
    return next(b for b in all_benchmarks(include_slow=False) if b.key == key)


def _on_core(core, run):
    """``run()`` with every SMT query answered by ``core``."""
    if core == "dpll":
        return run()
    with pytest.MonkeyPatch.context() as monkeypatch:
        use_cdcl_core(monkeypatch)
        return run()


def _without_solver_internals(rendering):
    """A table rendering's cells, row by row, minus the #SAT/#Confl columns."""
    header, _separator, *rows = rendering.splitlines()
    table = [[cell.strip() for cell in line.split(" | ")] for line in (header, *rows)]
    keep = [i for i, column in enumerate(table[0]) if column not in SOLVER_INTERNAL_COLUMNS]
    return [[cells[i] for i in keep] for cells in table]


# ---------------------------------------------------------------------------
# Per-benchmark: verdicts and witness traces agree obligation for obligation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("reference,candidate", CORE_PAIRS)
@pytest.mark.parametrize("key", _FAST_KEYS)
def test_suite_verification_agrees(key, reference, candidate):
    bench = _bench(key)
    outcomes = {}
    for core in (reference, candidate):
        stats = _on_core(core, lambda: bench.verify_all(bench.make_checker()))
        outcomes[core] = [
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


@pytest.mark.parametrize("reference,candidate", CORE_PAIRS)
@pytest.mark.parametrize("key", _FAST_KEYS)
def test_suite_negative_variants_agree(key, reference, candidate):
    """Known-bad variants are rejected identically, witness traces included."""
    bench = _bench(key)
    if not bench.negative_variants:
        pytest.skip(f"{key} has no negative variants")
    for variant in bench.negative_variants:
        outcomes = {}
        for core in (reference, candidate):
            result = _on_core(
                core,
                lambda: bench.verify_negative_variant(variant, bench.make_checker()),
            )
            outcomes[core] = (result.verified, result.error, result.counterexample)
        assert not outcomes[reference][0], f"{variant} must be rejected"
        assert outcomes[reference] == outcomes[candidate]


# ---------------------------------------------------------------------------
# The acceptance bar: tables without #SAT/#Confl agree cell for cell
# ---------------------------------------------------------------------------


class _CountingCdcl(CdclSolver):
    """The oracle core, counting the solves it answers."""

    solves = 0

    def solve_partial(self, assumptions=()):
        _CountingCdcl.solves += 1
        return super().solve_partial(assumptions)


@pytest.fixture(scope="module")
def per_core_reports():
    """One fast-corpus evaluation per core (negatives skipped: the
    per-benchmark tests above already compare them trace for trace); the
    oracle's run counts its solves in ``_CountingCdcl.solves``."""
    _CountingCdcl.solves = 0
    reports = {}
    for core in CORE_PAIRS[0]:
        with pytest.MonkeyPatch.context() as monkeypatch:
            if core == "cdcl":
                monkeypatch.setattr(solver_module, "SatSolver", _CountingCdcl)
            reports[core] = run_evaluation(include_slow=False, check_negative_variants=False)
    return reports


def test_backend_invariant_tables_are_byte_identical(per_core_reports):
    reference = per_core_reports["dpll"]
    assert reference.all_verified
    # the oracle really answered: its run's solves reached the CDCL core
    # (#Confl no longer tells the cores apart: with theory conflicts
    # explained by their proof path, neither core meets a conflict)
    assert _CountingCdcl.solves >= 1_000, f"only {_CountingCdcl.solves} oracle solves"
    for core, report in per_core_reports.items():
        assert report.all_verified, core
        for render in (table1, table3, table4):
            assert _without_solver_internals(
                render(report, deterministic=True)
            ) == _without_solver_internals(render(reference, deterministic=True)), core


def test_solver_internal_counters_have_their_own_columns(per_core_reports):
    """#SAT/#Confl are ordinary deterministic columns of the render; the
    cross-core comparison cuts exactly those two and keeps the rest."""
    report = per_core_reports["dpll"]

    def header(rendering):
        return [cell.strip() for cell in rendering.splitlines()[0].split(" | ")]

    deterministic = header(table3(report, deterministic=True))
    assert "#SAT" in deterministic and "#Confl" in deterministic
    invariant = _without_solver_internals(table3(report, deterministic=True))[0]
    assert "#SAT" not in invariant and "#Confl" not in invariant
    for column in ("#Obl", "#Inc", "#Prod", "#SATcache"):
        assert column in invariant
