"""Micro-benchmarks for the two engines behind the type checker.

These correspond to the per-query cost components t_SAT and t_FA⊆ of the
paper's tables: individual SMT validity queries (with method-predicate axiom
instantiation) and individual symbolic-automata inclusion checks.  The SAT
core alone is timed by replaying a fast run's recorded solves.
"""

import pytest

from repro import smt
from repro.smt.sorts import BYTES, ELEM, PATH
from repro.libraries.filelib import file_axioms, is_del, is_dir, parent_fn
from repro.libraries.setlib import make_set
from repro.sfa import symbolic as S
from repro.sfa.inclusion import InclusionChecker
from repro.smt.backends import SatSolver
from repro.suite.registry import all_benchmarks
from tests.sfa.oracles import use_exhaustive_enumeration


def test_smt_validity_with_axioms(benchmark):
    solver = smt.Solver(axioms=file_axioms())
    stored = smt.declare("mb_stored", [PATH], BYTES)
    p = smt.var("mb_p", PATH)

    goal = smt.implies(
        smt.apply(is_dir, smt.apply(stored, smt.apply(parent_fn, p))),
        smt.not_(smt.apply(is_del, smt.apply(stored, smt.apply(parent_fn, p)))),
    )

    def run():
        assert solver.is_valid(goal)
        return solver.stats.queries

    benchmark(run)


def test_smt_unsat_core_query(benchmark):
    solver = smt.Solver(axioms=file_axioms())
    b = smt.var("mb_b", BYTES)
    conflict = smt.and_(smt.apply(is_dir, b), smt.apply(is_del, b))

    def run():
        assert not solver.is_satisfiable(conflict)

    benchmark(run)


def test_sfa_inclusion_insert_once(benchmark):
    library = make_set(ELEM)
    insert = library.operators["insert"]
    el = smt.var("mb_el", ELEM)
    x = smt.var("mb_x", ELEM)
    insert_el = S.event_pinned(insert, {"x": el})
    invariant = S.globally(S.implies(insert_el, S.next_(S.not_(S.eventually(insert_el)))))
    fresh = S.and_(invariant, S.not_(S.eventually(S.event_pinned(insert, {"x": x}))))
    effect = S.and_(S.event_pinned(insert, {"x": x}), S.last())
    lhs = S.concat(fresh, effect)

    def run():
        checker = InclusionChecker(smt.Solver(), library.operators)
        assert checker.check([], lhs, invariant)
        return checker.stats.average_transitions

    benchmark(run)


def test_sfa_noninclusion_with_counterexample(benchmark):
    library = make_set(ELEM)
    insert = library.operators["insert"]
    el = smt.var("mb_el2", ELEM)
    x = smt.var("mb_x2", ELEM)
    insert_el = S.event_pinned(insert, {"x": el})
    invariant = S.globally(S.implies(insert_el, S.next_(S.not_(S.eventually(insert_el)))))
    effect = S.and_(S.event_pinned(insert, {"x": x}), S.last())
    lhs = S.concat(invariant, effect)  # no freshness check: not included

    def run():
        checker = InclusionChecker(smt.Solver(), library.operators)
        result = checker.check_detailed([], lhs, invariant)
        assert not result.included and result.counterexample
        return result

    benchmark(run)


def _verify_all_queries(bench) -> tuple[int, bool]:
    """(#SMT queries, all-verified) for a whole Table 1 row."""
    from repro.typecheck.checker import CheckerConfig

    checker = bench.make_checker(CheckerConfig())
    stats = bench.verify_all(checker)
    return checker.solver.stats.queries, stats.all_verified


@pytest.mark.parametrize(
    "key", [bench.key for bench in all_benchmarks(include_slow=False)]
)
def test_guided_enumeration_issues_fewer_queries(benchmark, key, monkeypatch):
    """Solver-guided enumeration beats the per-candidate walk on Table 1 rows.

    For every fast-corpus ADT, verifying the whole row with guided
    enumeration must succeed with strictly fewer SMT queries than the
    exhaustive oracle walk of ``tests/sfa/oracles.py`` — the headline claim
    of the enumeration subsystem.
    """
    bench = next(b for b in all_benchmarks(include_slow=False) if b.key == key)
    with monkeypatch.context() as patch:
        use_exhaustive_enumeration(patch)
        exhaustive_queries, exhaustive_ok = _verify_all_queries(bench)
    assert exhaustive_ok

    def run():
        return _verify_all_queries(bench)

    guided_queries, guided_ok = benchmark(run)
    assert guided_ok
    assert guided_queries < exhaustive_queries, (
        f"{key}: guided used {guided_queries} queries, "
        f"exhaustive used {exhaustive_queries}"
    )
    benchmark.extra_info["#SAT guided"] = guided_queries
    benchmark.extra_info["#SAT exhaustive"] = exhaustive_queries


@pytest.mark.parametrize(
    "key", [bench.key for bench in all_benchmarks(include_slow=False)]
)
def test_lazy_explores_fewer_states_than_compiled_builds(benchmark, key, monkeypatch):
    """The table walk beats DFA compilation on every Table 1 row.

    For every fast-corpus ADT, the product states the production walk
    explores over the row's discharged obligations must be strictly fewer
    than the DFA states the compiled oracle (``tests/sfa/oracles.py``)
    materialises for the same obligations — the headline claim of deciding
    by derivatives without compilation.
    """
    from repro.sfa.alphabet import build_alphabets
    from repro.typecheck.checker import CheckerConfig
    from tests.sfa.oracles import compile_dfa, record_discharges

    bench = next(b for b in all_benchmarks(include_slow=False) if b.key == key)
    captured = record_discharges(monkeypatch)

    def run():
        checker = bench.make_checker(CheckerConfig())
        return bench.verify_all(checker)

    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    assert stats.all_verified
    explored = sum(r.stats.prod_states for r in stats.method_results)
    operators, axioms = bench.library.operators, bench.library.axioms
    built = 0
    for obligation, _ in captured:
        solver = smt.Solver(axioms=list(axioms))
        pair = [obligation.lhs, obligation.rhs]
        for alphabet in build_alphabets(solver, list(obligation.hypotheses), pair, operators):
            built += sum(compile_dfa(side, alphabet).num_states for side in pair)
    assert 0 < explored < built, (
        f"{key}: the walk explored {explored} product states, "
        f"the compiled oracle built {built} DFA states"
    )
    benchmark.extra_info["#prod-states (table walk)"] = explored
    benchmark.extra_info["DFA states built (compiled oracle)"] = built


@pytest.mark.parametrize(
    "key", [bench.key for bench in all_benchmarks(include_slow=False)]
)
def test_alphabet_builds_fewer_than_obligations(benchmark, key):
    """Obligation-level reuse saves alphabet constructions on every Table 1 row.

    One checker verifies the whole row (positive methods plus the known-bad
    variants, exactly as ``evaluate`` runs it).  Every inclusion it decides
    builds its own alphabet, yet the row must enumerate strictly fewer
    alphabets than it emits inclusion obligations: the batch dedupe and the
    cross-method verdict memo answer repeated obligations without deciding
    them again.
    """
    from repro.typecheck.checker import CheckerConfig

    bench = next(b for b in all_benchmarks(include_slow=False) if b.key == key)

    def run():
        checker = bench.make_checker(CheckerConfig())
        stats = bench.verify_all(checker)
        assert stats.all_verified
        results = list(stats.method_results)
        for variant in bench.negative_variants:
            rejected = bench.verify_negative_variant(variant, checker)
            assert not rejected.verified
            results.append(rejected)
        return results

    results = benchmark(run)
    builds = sum(r.stats.alphabet_builds for r in results)
    emitted = sum(r.stats.obligations for r in results)
    assert 0 < builds < emitted, (
        f"{key}: {builds} alphabet constructions for {emitted} emitted "
        "obligations — deduped and memoised obligations are being decided again"
    )
    benchmark.extra_info["alphabet builds"] = builds
    benchmark.extra_info["emitted obligations"] = emitted


def test_fast_corpus_derivative_work_gate(monkeypatch, tmp_path):
    """A noise-free work gate on the transition tables of a cold fast run.

    Rows derive once per minterm class of their state, not once per minterm:
    the fast corpus (cold, against a fresh store, as perfbench's ``fast``
    workload runs it) computes at most 30,000 derivatives, where one per
    (subformula, minterm) computed 72,780.  The rows built and the product
    states the walks reach are pinned exactly: the classes move work, never
    a row or a walk.
    """
    from repro.evaluation.runner import run_evaluation
    from repro.store.obligation_store import ObligationStore
    from tests.sfa.oracles import record_tables

    tables = record_tables(monkeypatch)
    report = run_evaluation(include_slow=False, store=ObligationStore(tmp_path / "store"))
    assert report.all_verified and report.all_negatives_rejected
    derivatives = sum(table.derivatives for table in tables)
    rows_built = sum(table.rows_built for table in tables)
    prod_states = sum(
        result.stats.prod_states for stats in report.adt_stats for result in stats.method_results
    )
    assert derivatives <= 30_000, f"{derivatives} derivative computations"
    assert rows_built == 1_112
    assert prod_states == 893


class _RecordingCore(SatSolver):
    """The production core that logs its calls, one op list per instance."""

    log: list = []

    def __init__(self) -> None:
        super().__init__()
        self.ops: list[tuple] = []
        self.log.append(self.ops)

    def add_clause(self, clause) -> None:
        clause = tuple(clause)
        self.ops.append(("clause", clause))
        super().add_clause(clause)

    def ensure_vars(self, num_vars: int) -> None:
        self.ops.append(("vars", num_vars))
        super().ensure_vars(num_vars)

    def solve_partial(self, assumptions=()):
        assumptions = tuple(assumptions)
        model = super().solve_partial(assumptions)
        self.ops.append(
            ("solve", assumptions, self.priority_vars, dict(self.phase_hint), model)
        )
        return model


def _replay(log) -> list:
    """Re-run every recorded call on fresh production cores; their models."""
    models = []
    for ops in log:
        sat = SatSolver()
        for op in ops:
            if op[0] == "clause":
                sat.add_clause(op[1])
            elif op[0] == "vars":
                sat.ensure_vars(op[1])
            else:
                sat.priority_vars = op[2]
                sat.phase_hint = op[3]
                models.append(sat.solve_partial(op[1]))
    return models


def test_sat_core_replay(benchmark, monkeypatch):
    """The SAT core alone: replay a cold fast run's solves on fresh cores.

    The call sequence (clauses, variable widenings, and each solve's
    assumptions, priorities and phase hints) is recorded once from a cold
    ``run_evaluation`` of the fast corpus; the benchmark times replaying it,
    so the ``smt.sat`` layer's cost shows without the rest of the pipeline.
    The replay must give back every recorded model.
    """
    from repro.evaluation.runner import run_evaluation
    from repro.smt import solver as solver_module

    monkeypatch.setattr(_RecordingCore, "log", [])
    monkeypatch.setattr(solver_module, "SatSolver", _RecordingCore)
    report = run_evaluation(include_slow=False)
    assert report.all_verified and report.all_negatives_rejected
    log = _RecordingCore.log
    recorded = [op[4] for ops in log for op in ops if op[0] == "solve"]
    assert len(recorded) >= 1_000

    models = benchmark(_replay, log)
    assert models == recorded
    benchmark.extra_info["cores"] = len(log)
    benchmark.extra_info["solves"] = len(recorded)
