"""The cross-obligation reuse layers: alphabet memo and derivative cache.

The :class:`~repro.sfa.alphabet.AlphabetMemo` must (a) actually share minterm
enumerations between distinct formulas with the same literal sets, (b) replay
the recorded counter bill on a hit so a hit and a rebuild are
indistinguishable in every statistic, and (c) stay bounded.  The
:class:`~repro.sfa.derivatives.DerivativeCache` is pure reuse: identical
verdicts and witnesses with or without it, hits across searches, bounded.
"""

import pytest

from repro import smt
from repro.smt.solver import SolverStats
from repro.smt.sorts import ELEM
from repro.libraries.setlib import make_set
from repro.sfa import symbolic as S
from repro.sfa.alphabet import AlphabetMemo, AlphabetStats, collect_literals
from repro.sfa.batch import decide
from repro.sfa.derivatives import DerivativeCache
from repro.sfa.inclusion import InclusionChecker


@pytest.fixture()
def setlib():
    return make_set(ELEM)


def _insert_event(library, var_name):
    insert = library.operators["insert"]
    x = smt.var(var_name, ELEM)
    return S.event_pinned(insert, {"x": x}), x


def _formulas(library):
    """Two structurally different formula pairs over the same literal set."""
    ev, x = _insert_event(library, "pm_x")
    a = S.globally(S.implies(ev, S.next_(S.not_(S.eventually(ev)))))
    b = S.eventually(ev)
    c = S.concat(a, S.and_(ev, S.last()))
    d = S.or_(b, S.next_(b))
    return (a, b), (c, d)


def test_memo_shares_builds_across_distinct_formulas(setlib):
    memo = AlphabetMemo()
    first, second = _formulas(setlib)
    assert collect_literals(list(first), setlib.operators).fingerprint() == (
        collect_literals(list(second), setlib.operators).fingerprint()
    )
    alphabets_one, built_one = memo.alphabets_for([], list(first), setlib.operators)
    alphabets_two, built_two = memo.alphabets_for([], list(second), setlib.operators)
    assert built_one and not built_two
    assert memo.builds == 1 and memo.hits == 1
    assert alphabets_one is alphabets_two  # the shared construction itself


def test_memo_hit_replays_identical_counters(setlib):
    """A hit merges byte-identical numbers to the build it reuses."""
    first, second = _formulas(setlib)

    build_solver_stats, build_alphabet_stats = SolverStats(), AlphabetStats()
    memo = AlphabetMemo()
    memo.alphabets_for(
        [], list(first), setlib.operators,
        stats=build_alphabet_stats, solver_stats=build_solver_stats,
    )

    hit_solver_stats, hit_alphabet_stats = SolverStats(), AlphabetStats()
    memo.alphabets_for(
        [], list(second), setlib.operators,
        stats=hit_alphabet_stats, solver_stats=hit_solver_stats,
    )
    assert hit_alphabet_stats.as_dict() == build_alphabet_stats.as_dict()
    replayed = hit_solver_stats.as_dict()
    original = build_solver_stats.as_dict()
    assert {k: v for k, v in replayed.items() if k != "time_seconds"} == {
        k: v for k, v in original.items() if k != "time_seconds"
    }


def test_disabled_memo_still_builds_hermetically(setlib):
    """``enabled=False`` turns off reuse only: every call builds, counters match."""
    first, second = _formulas(setlib)
    memo = AlphabetMemo(enabled=False)
    on_stats = SolverStats()
    memo.alphabets_for([], list(first), setlib.operators, solver_stats=on_stats)
    off_stats = SolverStats()
    memo.alphabets_for([], list(second), setlib.operators, solver_stats=off_stats)
    assert memo.builds == 2 and memo.hits == 0 and len(memo) == 0
    assert {k: v for k, v in on_stats.as_dict().items() if k != "time_seconds"} == {
        k: v for k, v in off_stats.as_dict().items() if k != "time_seconds"
    }


def test_memo_key_distinguishes_hypotheses(setlib):
    memo = AlphabetMemo()
    (a, b), _ = _formulas(setlib)
    _, x = _insert_event(setlib, "pm_x")
    y = smt.var("pm_y", ELEM)
    _, first_built = memo.alphabets_for([], [a, b], setlib.operators)
    _, second_built = memo.alphabets_for([smt.eq(x, y)], [a, b], setlib.operators)
    assert first_built and second_built
    assert memo.builds == 2


def test_memo_size_cap_evicts_wholesale(setlib):
    memo = AlphabetMemo(max_entries=2)
    (a, b), _ = _formulas(setlib)
    _, x = _insert_event(setlib, "pm_x")
    variants = [[], [smt.eq(x, smt.var("pm_cap0", ELEM))], [smt.eq(x, smt.var("pm_cap1", ELEM))]]
    for hypotheses in variants:
        memo.alphabets_for(hypotheses, [a, b], setlib.operators)
    assert memo.evictions >= 1
    assert len(memo) <= 2


def test_checker_threads_memo_counters_into_stats(setlib):
    (a, b), (c, d) = _formulas(setlib)
    memo = AlphabetMemo()
    checker = InclusionChecker(smt.Solver(), setlib.operators, alphabet_memo=memo)
    checker.check([], a, b)
    checker.check([], c, d)
    assert checker.stats.alphabet_builds == 1
    assert checker.stats.alphabet_memo_hits == 1


# ---------------------------------------------------------------------------
# Derivative cache
# ---------------------------------------------------------------------------


def _search(lhs, rhs, alphabet, *, cache=None):
    """The production walk's ``(witness, #pairs explored)`` over one alphabet."""
    walk = decide(lhs, rhs, alphabet, cache=cache)
    return walk.witness, walk.explored


def _alphabet_for(setlib, lhs, rhs):
    from repro.sfa.alphabet import build_alphabets

    alphabets = build_alphabets(smt.Solver(), [], [lhs, rhs], setlib.operators)
    assert alphabets
    return alphabets[0]


def _uniqueness_pairs(setlib):
    """Obligation-shaped searches that genuinely walk the product.

    Mirrors the Set uniqueness invariant: a fresh insert preserves it (the
    included direction explores), a non-fresh insert violates it (the witness
    direction explores before finding the counterexample).  Both sides share
    the invariant, which is exactly the cross-search reuse the cache targets.
    """
    insert = setlib.operators["insert"]
    x = smt.var("pm_x", ELEM)
    el = smt.var("pm_el", ELEM)
    ev = S.event_pinned(insert, {"x": x})
    ev_el = S.event_pinned(insert, {"x": el})
    invariant = S.globally(S.implies(ev_el, S.next_(S.not_(S.eventually(ev_el)))))
    fresh = S.and_(invariant, S.not_(S.eventually(ev)))
    good = S.concat(fresh, S.and_(ev, S.last()))
    bad = S.concat(invariant, S.and_(ev, S.last()))
    return invariant, good, bad


def test_derivative_cache_agrees_with_uncached_search(setlib):
    invariant, good, bad = _uniqueness_pairs(setlib)
    cache = DerivativeCache()
    for lhs, rhs in ((good, invariant), (bad, invariant), (invariant, good)):
        alphabet = _alphabet_for(setlib, lhs, rhs)
        plain = _search(lhs, rhs, alphabet)
        cached = _search(lhs, rhs, alphabet, cache=cache)
        assert cached == plain  # witness AND explored-pair count


def test_derivative_cache_hits_across_searches(setlib):
    invariant, good, bad = _uniqueness_pairs(setlib)
    cache = DerivativeCache()
    alphabet = _alphabet_for(setlib, good, invariant)
    _search(good, invariant, alphabet, cache=cache)
    assert cache.misses > 0 and cache.hits == 0
    misses_after_first = cache.misses
    # a different obligation over the same alphabet shares the invariant
    # side (and every converged derivative): its steps replay from the cache
    _search(bad, invariant, alphabet, cache=cache)
    assert cache.hits > 0
    assert cache.misses >= misses_after_first  # fresh sides still miss


def test_derivative_cache_cap_and_eviction_counter(setlib):
    invariant, good, _ = _uniqueness_pairs(setlib)
    cache = DerivativeCache(max_entries=4)
    alphabet = _alphabet_for(setlib, good, invariant)
    _search(good, invariant, alphabet, cache=cache)
    assert cache.evictions >= 1
    assert len(cache) <= 4


def test_derivative_cache_interning_tables_are_bounded(setlib):
    """The interning side tables are capped too, and a wipe can never make a
    stale id alias a fresh one (ids are monotonic across evictions)."""
    invariant, good, bad = _uniqueness_pairs(setlib)
    cache = DerivativeCache(max_interned=1)
    alphabet = _alphabet_for(setlib, good, invariant)
    first_ids = cache.keys_for(alphabet)
    assert cache.keys_for(alphabet) == first_ids  # cached while resident

    insert = setlib.operators["insert"]
    z = smt.var("pm_intern_z", ELEM)
    ev_z = S.event_pinned(insert, {"x": z})
    other = _alphabet_for(setlib, S.eventually(ev_z), S.globally(ev_z))
    assert other.fingerprint() != alphabet.fingerprint()
    cache.keys_for(other)  # crosses the cap: tables wiped, eviction counted
    assert cache.evictions >= 1
    assert len(cache._alphabet_keys) <= 1

    reinterned = cache.keys_for(alphabet)
    assert reinterned != first_ids, "wiped ids must never be reissued"
    # correctness across the wipe: searches still agree with the uncached walk
    cached = _search(good, invariant, alphabet, cache=cache)
    assert cached == _search(good, invariant, alphabet)


def test_solver_cache_eviction_counter():
    solver = smt.Solver(max_cache_entries=2)
    x = smt.var("pm_ev_x", ELEM)
    for i in range(4):
        y = smt.var(f"pm_ev_{i}", ELEM)
        solver.is_satisfiable(smt.eq(x, y))
    assert solver.stats.cache_evictions >= 1
