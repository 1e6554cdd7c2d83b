"""Micro-benchmarks for the two engines behind the type checker.

These correspond to the per-query cost components t_SAT and t_FA⊆ of the
paper's tables: individual SMT validity queries (with method-predicate axiom
instantiation) and individual symbolic-automata inclusion checks.
"""

import pytest

from repro import smt
from repro.smt.sorts import BYTES, ELEM, PATH
from repro.libraries.filelib import file_axioms, is_del, is_dir, parent_fn
from repro.libraries.setlib import make_set
from repro.sfa import symbolic as S
from repro.sfa.inclusion import InclusionChecker
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
def test_alphabet_memo_builds_fewer_than_obligations(benchmark, key):
    """Cross-obligation alphabet reuse is real on every Table 1 row.

    One checker verifies the whole row (positive methods plus the known-bad
    variants, exactly as ``evaluate`` runs it); the shared memo must
    enumerate strictly fewer alphabets than the row emits inclusion
    obligations — i.e. obligations genuinely share minterm constructions
    instead of redoing them per inclusion.
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
    memo_hits = sum(r.stats.alphabet_memo_hits for r in results)
    emitted = sum(r.stats.obligations for r in results)
    assert 0 < builds < emitted, (
        f"{key}: {builds} alphabet constructions for {emitted} emitted "
        "obligations — the cross-obligation memo is not sharing"
    )
    benchmark.extra_info["alphabet builds"] = builds
    benchmark.extra_info["alphabet memo hits"] = memo_hits
    benchmark.extra_info["emitted obligations"] = emitted


def test_cold_evaluate_beats_pr4_baseline(benchmark):
    """The profile-guided pass actually moved the headline number.

    ``BENCH_PR5.json`` records the PR 4 cold fast-corpus wall time, measured
    on the reference machine with the same best-of-N harness semantics this
    test uses; the memoised pipeline must beat it.  Wall-clock comparisons
    are only meaningful on comparable hardware, so the assertion runs only
    when this machine matches the one the payload records — elsewhere the
    test skips and the cross-machine gate is CI's tolerance-based
    ``bench-smoke`` diff (refresh the payload with ``repro bench`` after
    changing reference machines).
    """
    import json
    import platform
    import sys
    import time
    from pathlib import Path

    from repro.evaluation.runner import run_evaluation

    payload = json.loads(
        (Path(__file__).resolve().parents[1] / "BENCH_PR5.json").read_text()
    )
    here = {
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "machine": platform.machine(),
    }
    if payload.get("machine") != here:
        pytest.skip(
            "BENCH_PR5.json was recorded on different hardware; wall-time "
            "comparison is only meaningful against a same-machine baseline"
        )
    baseline = payload["baseline"]["cold_wall_seconds"]

    walls = []
    for _ in range(3):
        start = time.perf_counter()
        report = run_evaluation(include_slow=False)
        walls.append(time.perf_counter() - start)
        assert report.all_verified and report.all_negatives_rejected

    def run():
        return min(walls)

    best = benchmark(run)
    assert best < baseline, (
        f"cold fast-corpus evaluate took {best:.3f}s, PR 4 baseline was "
        f"{baseline:.3f}s — the cross-obligation reuse regressed"
    )
    benchmark.extra_info["cold wall (best of 3)"] = round(best, 4)
    benchmark.extra_info["PR4 baseline"] = baseline


def test_batch_cold_evaluate_beats_pr5_baseline(benchmark):
    """The transition-table walk actually moved the headline number.

    ``BENCH_PR7.json`` is a grouped table-walk payload whose ``baseline``
    block carries the PR 5 cold fast-corpus wall time (formula-pair walk,
    same machine, same best-of-N semantics).  The table walk must beat it.  As
    with the PR 5 gate above, the assertion is machine-guarded: elsewhere it
    skips and the cross-machine gate is CI's tolerance-based ``bench-smoke``
    diff against the committed payload.
    """
    import json
    import platform
    import sys
    import time
    from pathlib import Path

    from repro.evaluation.runner import run_evaluation

    payload = json.loads(
        (Path(__file__).resolve().parents[1] / "BENCH_PR7.json").read_text()
    )
    here = {
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "machine": platform.machine(),
    }
    if payload.get("machine") != here:
        pytest.skip(
            "BENCH_PR7.json was recorded on different hardware; wall-time "
            "comparison is only meaningful against a same-machine baseline"
        )
    baseline = payload["baseline"]["cold_wall_seconds"]

    walls = []
    for _ in range(3):
        start = time.perf_counter()
        report = run_evaluation(include_slow=False)
        walls.append(time.perf_counter() - start)
        assert report.all_verified and report.all_negatives_rejected

    def run():
        return min(walls)

    best = benchmark(run)
    assert best < baseline, (
        f"cold fast-corpus evaluate took {best:.3f}s, the PR 5 formula-walk "
        f"baseline was {baseline:.3f}s — the table walk regressed"
    )
    benchmark.extra_info["cold wall (best of 3)"] = round(best, 4)
    benchmark.extra_info["PR5 baseline"] = baseline
