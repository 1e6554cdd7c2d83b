"""Cache-behaviour tests for the solver's content-addressed query cache
(``SolverStats.cache_hits`` / ``cache_misses``; enumerations have none), the
hermeticity of inclusion checks (no cache carries over between them), plus
round-tripping of the counters through ``merge`` / ``snapshot``.
"""

from repro import smt
from repro.engine.obligations import Obligation
from repro.engine.scheduler import discharge_group
from repro.smt import sorts
from repro.smt.solver import SolverStats
from repro.sfa import symbolic as S
from repro.sfa.inclusion import InclusionChecker, InclusionStats


def _obligation(set_ops):
    insert = set_ops["insert"]
    el = smt.var("cache_el", sorts.ELEM)
    x = smt.var("cache_x", sorts.ELEM)
    insert_el = S.event_pinned(insert, {"x": el})
    invariant = S.globally(S.implies(insert_el, S.next_(S.not_(S.eventually(insert_el)))))
    fresh = S.and_(invariant, S.not_(S.eventually(S.event_pinned(insert, {"x": x}))))
    effect = S.and_(S.event_pinned(insert, {"x": x}), S.last())
    lhs = S.concat(fresh, effect)
    return lhs, invariant


def test_smt_query_cache_reports_hits():
    solver = smt.Solver()
    x = smt.var("qc_x", smt.INT)
    y = smt.var("qc_y", smt.INT)
    phi = smt.lt(x, y)

    assert solver.is_satisfiable(phi)
    assert solver.stats.cache_misses == 1
    assert solver.stats.cache_hits == 0
    queries = solver.stats.queries

    assert solver.is_satisfiable(phi)
    assert solver.stats.cache_hits == 1
    assert solver.stats.queries == queries  # cached: no new solver work

    # enumerations have no cache: asking again solves again, in the one
    # context of their base formula, and moves no cache counter
    a = smt.var("qc_a", smt.BOOL)
    models = solver.enumerate_models([a], base=phi)
    assert [value for _, value in models[0]] == [True]
    hits, misses, queries = solver.stats.cache_hits, solver.stats.cache_misses, solver.stats.queries
    encodings = solver.stats.encodings
    again = solver.enumerate_models([a], base=phi)
    assert again == models
    assert (solver.stats.cache_hits, solver.stats.cache_misses) == (hits, misses)
    assert solver.stats.queries > queries
    assert solver.stats.encodings == encodings


def _untimed(stats) -> dict:
    timers = ("time_seconds", "fa_time_seconds")
    return {k: v for k, v in stats.as_dict().items() if k not in timers}


def _bill_of_one_check(checker, lhs, rhs) -> tuple[dict, dict]:
    """The solver and inclusion counters one ``check_detailed`` adds."""
    solver_before = checker.solver.stats.snapshot()
    inclusion_before = checker.stats.snapshot()
    checker.check_detailed([], lhs, rhs)
    return (
        _untimed(checker.solver.stats.since(solver_before)),
        _untimed(checker.stats.since(inclusion_before)),
    )


def test_inline_checks_are_hermetic_and_bill_what_the_engine_records(set_ops):
    """Asking one inclusion twice bills the same counters both times, on a
    fresh solver and on one that has answered other queries before, and
    those counters are what the engine's discharge records for it."""
    lhs, invariant = _obligation(set_ops)
    obligation = Obligation(
        kind="test",
        hypotheses=(),
        lhs=lhs,
        rhs=invariant,
        provenance="hermeticity",
        failure_message="inclusion failed",
        index=0,
    )
    (recorded,) = discharge_group([obligation], set_ops, ())
    expected = (
        _untimed(SolverStats.from_dict(recorded["solver"])),
        _untimed(InclusionStats.from_dict(recorded["inclusion"])),
    )
    assert expected[0]["queries"] > 0 and expected[1]["alphabet_builds"] == 1

    fresh = InclusionChecker(smt.Solver(), set_ops)
    assert _bill_of_one_check(fresh, lhs, invariant) == expected
    assert _bill_of_one_check(fresh, lhs, invariant) == expected

    used = smt.Solver()
    el = smt.var("cache_el", sorts.ELEM)
    y = smt.var("cache_other_y", sorts.ELEM)
    assert used.is_satisfiable(smt.eq(el, y))
    used.enumerate_models([smt.eq(el, y)])
    assert used.stats.queries > 0
    warm = InclusionChecker(used, set_ops)
    assert _bill_of_one_check(warm, lhs, invariant) == expected
    assert _bill_of_one_check(warm, lhs, invariant) == expected


def test_solver_cache_eviction_counter():
    solver = smt.Solver(max_cache_entries=2)
    x = smt.var("pm_ev_x", sorts.ELEM)
    for i in range(4):
        y = smt.var(f"pm_ev_{i}", sorts.ELEM)
        solver.is_satisfiable(smt.eq(x, y))
    assert solver.stats.cache_evictions >= 1


def test_solver_stats_roundtrip_new_counters():
    stats = SolverStats(
        queries=3,
        sat_results=2,
        unsat_results=1,
        theory_conflicts=4,
        cache_hits=5,
        cache_misses=6,
        models_enumerated=7,
        time_seconds=0.5,
    )
    snap = stats.snapshot()
    assert snap == stats

    merged = SolverStats()
    merged.merge(stats)
    merged.merge(snap)
    assert merged.cache_hits == 10
    assert merged.cache_misses == 12
    assert merged.models_enumerated == 14
    assert merged.queries == 6


def test_inclusion_stats_roundtrip_new_counters():
    stats = InclusionStats(
        fa_inclusion_checks=1,
        automata_built=2,
        total_transitions=30,
        context_cases=4,
        minterm_candidates=16,
        satisfiable_minterms=9,
        prod_states=5,
        fa_time_seconds=0.25,
    )
    snap = stats.snapshot()
    assert snap == stats

    merged = InclusionStats()
    merged.merge(stats)
    merged.merge(snap)
    assert merged.prod_states == 10
    assert merged.total_transitions == 60
    assert merged.satisfiable_minterms == 18
