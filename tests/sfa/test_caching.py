"""Cache-behaviour tests for the solver's content-addressed query and
enumeration caches (``SolverStats.cache_hits`` / ``cache_misses``), plus
round-tripping of the counters through ``merge`` / ``snapshot``.
"""

from repro import smt
from repro.smt.solver import SolverStats
from repro.sfa import symbolic as S
from repro.sfa.inclusion import InclusionChecker, InclusionStats


def _obligation(set_ops):
    from repro.smt import sorts

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

    # the enumeration cache shares the same counters
    a = smt.var("qc_a", smt.BOOL)
    models = solver.enumerate_models([a], base=phi)
    assert [value for _, value in models[0]] == [True]
    misses = solver.stats.cache_misses
    again = solver.enumerate_models([a], base=phi)
    assert again == models
    assert solver.stats.cache_misses == misses
    assert solver.stats.cache_hits >= 2


def test_enumeration_cache_speeds_repeated_alphabet_builds(set_ops):
    lhs, invariant = _obligation(set_ops)
    checker = InclusionChecker(smt.Solver(), set_ops)
    checker.check_detailed([], lhs, invariant)
    # the same automata pair under a different (empty) hypothesis set builds
    # the same alphabets: enumeration answers must come from the cache
    hits_before = checker.solver.stats.cache_hits
    checker.check_detailed([smt.TRUE], lhs, invariant)
    assert checker.solver.stats.cache_hits > hits_before


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
