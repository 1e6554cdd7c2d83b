"""Differential tests: grouped discharge vs the oracles.

The engine groups cold obligations by their cross-obligation alphabet key
and walks each group's members one after another over one shared
transition table per context case (``repro.sfa.batch``).  Grouping is a
*sharing* transformation, never a semantic one, so everything observable
must match deciding each obligation alone — with the production walk on a
fresh table, and with the formula-pair oracle
(``oracles.lazy_inclusion_search``):

* identical verdicts, counterexample traces, #Prod and error messages on
  every obligation — on the full fast corpus, for every solver backend,
* genuine witnesses: every counterexample replays on the compiled DFAs
  (accepted by lhs, rejected by rhs),
* and order independence: a member that fails (e.g. on the pair budget)
  leaves every later member's answer untouched.

The corpus is the suite's fast benchmarks plus >=100 seeded-random groups
of SFA pairs built over a shared literal pool (so they genuinely share the
grouping key, like sibling obligations of one method do).
"""

import random

import pytest

from repro import smt
from repro.sfa import symbolic as S
from repro.sfa.alphabet import AlphabetError, AlphabetMemo, build_alphabets, collect_literals
from repro.sfa.batch import TransitionTable, decide, discharge_group, walk
from repro.sfa.derivatives import CompilationError
from repro.sfa.inclusion import InclusionChecker, InclusionStats
from repro.smt.solver import SolverError
from repro.evaluation.runner import run_evaluation
from repro.engine.obligations import Obligation
from repro.suite.registry import all_benchmarks
from repro.typecheck.checker import CheckerConfig

from oracles import compile_dfa, lazy_inclusion_search, oracle_check, record_discharges
from test_discharge_diff import _random_context_literal, _random_registry, _random_sfa

# ---------------------------------------------------------------------------
# Random group generator
# ---------------------------------------------------------------------------


def _group_members(rng: random.Random, lhs: S.Sfa, rhs: S.Sfa) -> list[tuple[S.Sfa, S.Sfa]]:
    """2-5 obligation pairs combined from one formula pool.

    Boolean/temporal combinators add no qualifier literals, so pairs drawn
    from the same pool usually share the alphabet content key — the shape
    sibling obligations of one method have (the invariant on one side,
    per-branch contexts on the other).  Callers still group by the computed
    key: ACI collapse (e.g. ``or(x, not x)``) can drop literals.
    """
    pool = [lhs, rhs, S.or_(lhs, rhs), S.and_(lhs, rhs), S.not_(lhs), S.next_(rhs)]
    count = rng.randrange(2, 6)
    return [(rng.choice(pool), rng.choice(pool)) for _ in range(count)]


def _make_obligation(hypotheses, lhs, rhs, index) -> Obligation:
    return Obligation(
        kind="test",
        hypotheses=tuple(hypotheses),
        lhs=lhs,
        rhs=rhs,
        provenance=f"random group member {index}",
        failure_message="inclusion failed",
        index=index,
    )


def _key(memo, hypotheses, pair, registry):
    """The alphabet-memo key the engine would group this pair under."""
    return memo.key_of(
        hypotheses, collect_literals(list(pair), registry), max_literals=None, filter_unsat=True
    )


# ---------------------------------------------------------------------------
# Table-level differential: the table walk IS the lazy walk
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(40))
def test_lockstep_search_matches_lazy_walk_exactly(seed):
    """Per member, the BFS over a shared table must replicate
    ``lazy_inclusion_search`` step for step: same witness indices, same
    explored count — and witnesses must replay genuinely on the compiled
    DFAs."""
    rng = random.Random(515_151 + seed)
    registry = _random_registry(rng)
    base_lhs = _random_sfa(rng, registry)
    base_rhs = _random_sfa(rng, registry)
    members = _group_members(rng, base_lhs, base_rhs)
    solver = smt.Solver()
    try:
        alphabets = build_alphabets(solver, [], [base_lhs, base_rhs], registry)
    except (AlphabetError, SolverError):
        pytest.skip("alphabet construction exceeds the default budget")
    for alphabet in alphabets:
        table = TransitionTable(alphabet)
        for lhs, rhs in members:
            found = walk(table, lhs, rhs)
            witness, explored = lazy_inclusion_search(lhs, rhs, alphabet)
            assert found.witness == witness
            assert found.explored == explored
            if witness is not None:
                lhs_dfa = compile_dfa(lhs, alphabet)
                rhs_dfa = compile_dfa(rhs, alphabet)
                assert lhs_dfa.accepts_word(list(witness))
                assert not rhs_dfa.accepts_word(list(witness))


def test_lockstep_budget_error_matches_lazy_message():
    """A walk that trips ``max_pairs`` raises the exact lazy error."""
    for seed in range(50):
        rng = random.Random(313 + seed)
        registry = _random_registry(rng)
        lhs = _random_sfa(rng, registry, depth=4)
        rhs = _random_sfa(rng, registry, depth=4)
        solver = smt.Solver()
        try:
            alphabets = build_alphabets(solver, [], [lhs, rhs], registry)
        except (AlphabetError, SolverError):
            continue
        for alphabet in alphabets:
            _, explored = lazy_inclusion_search(lhs, rhs, alphabet)
            if explored < 2:
                continue  # the bounded walk would finish before the budget
            with pytest.raises(CompilationError) as excinfo:
                lazy_inclusion_search(lhs, rhs, alphabet, max_pairs=1)
            with pytest.raises(CompilationError) as walk_error:
                walk(TransitionTable(alphabet), lhs, rhs, max_pairs=1)
            assert str(walk_error.value) == str(excinfo.value)
            assert str(walk_error.value) == "lazy product walk exceeded 1 pairs"
            return
    pytest.fail("no seed produced a product walk beyond one pair")


# ---------------------------------------------------------------------------
# Group-level differential: >=100 random groups vs the lazy checker
# ---------------------------------------------------------------------------


def test_discharge_group_matches_lazy_checker_on_random_groups():
    """>=100 random groups: every member's verdict, trace, error and
    deterministic counters equal an independent lazy check."""
    total_groups = 0
    multi_member_groups = 0
    counterexamples_seen = 0
    for seed in range(110):
        rng = random.Random(626_262 + seed)
        registry = _random_registry(rng)
        base_lhs = _random_sfa(rng, registry)
        base_rhs = _random_sfa(rng, registry)
        hypotheses = []
        if rng.random() < 0.3:
            hypothesis = _random_context_literal(rng)
            if not (hypothesis.is_true or hypothesis.is_false):
                hypotheses.append(hypothesis)

        memo = AlphabetMemo()
        candidates = _group_members(rng, base_lhs, base_rhs)
        key = _key(memo, hypotheses, candidates[0], registry)
        members = [pair for pair in candidates if _key(memo, hypotheses, pair, registry) == key]
        obligations = [
            _make_obligation(hypotheses, lhs, rhs, i)
            for i, (lhs, rhs) in enumerate(members)
        ]
        results = discharge_group(obligations, registry, memo)
        total_groups += 1
        assert len(results) == len(members)
        if len(members) > 1:
            multi_member_groups += 1

        for (lhs, rhs), result in zip(members, results):
            oracle = InclusionChecker(smt.Solver(), registry)
            try:
                detail = oracle.check_detailed(list(hypotheses), lhs, rhs)
                expected = (detail.included, detail.counterexample, None)
            except (AlphabetError, CompilationError, SolverError) as exc:
                expected = (False, None, str(exc))
            assert (result["included"], result["counterexample"], result["error"]) == expected
            if expected[2] is None:
                lazy = oracle_check(hypotheses, lhs, rhs, registry)
                assert (lazy.included, lazy.counterexample) == expected[:2]
                assert result["inclusion"]["prod_states"] == lazy.prod_states
                oracle_stats = oracle.stats.as_dict()
                for field in (
                    "fa_inclusion_checks",
                    "prod_states",
                    "context_cases",
                    "minterm_candidates",
                    "satisfiable_minterms",
                ):
                    assert result["inclusion"][field] == oracle_stats[field], field
            if result["counterexample"]:
                counterexamples_seen += 1

    assert total_groups >= 100
    # the generator must genuinely exercise the sharing path and failures
    assert multi_member_groups >= 30
    assert counterexamples_seen >= 10


def test_discharge_group_construction_failure_reports_every_member():
    """An alphabet budget blowup fails all members with the lazy message."""
    for seed in range(30):
        rng = random.Random(131 + seed)
        registry = _random_registry(rng)
        lhs = _random_sfa(rng, registry)
        rhs = _random_sfa(rng, registry)
        oracle = InclusionChecker(smt.Solver(), registry, max_literals=0)
        try:
            oracle.check_detailed([], lhs, rhs)
            continue  # no qualifier literals: a zero budget suffices
        except (AlphabetError, SolverError) as exc:
            expected_message = str(exc)
        memo = AlphabetMemo()
        obligations = [_make_obligation([], lhs, rhs, i) for i in range(3)]
        results = discharge_group(obligations, registry, memo, max_literals=0)
        for result in results:
            assert not result["included"]
            assert result["error"] == expected_message
        return
    pytest.fail("no seed produced formulas over the zero-literal budget")


# ---------------------------------------------------------------------------
# Corpus differential: full fast corpus, both solver backends, both stores
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", ["dpll", "cdcl"])
def test_fast_corpus_batch_equals_lazy(backend, monkeypatch):
    """Every obligation the grouped discharge decides on the fast corpus —
    positive methods and negative variants — equals the formula-pair
    oracle's answer: verdict, witness trace and #Prod."""
    config = CheckerConfig(backend=backend)
    discharged = 0
    for bench in all_benchmarks(include_slow=False):
        captured = record_discharges(monkeypatch)
        report = run_evaluation([bench], config=config)
        assert report.all_verified and report.all_negatives_rejected
        operators, axioms = bench.library.operators, bench.library.axioms
        for obligation, result in captured:
            assert result["error"] is None
            oracle = oracle_check(
                obligation.hypotheses, obligation.lhs, obligation.rhs, operators, axioms=axioms
            )
            assert (result["included"], result["counterexample"]) == (
                oracle.included,
                oracle.counterexample,
            )
            assert result["inclusion"]["prod_states"] == oracle.prod_states
        discharged += len(captured)
    assert discharged >= 60


# ---------------------------------------------------------------------------
# Sequential group walk: one member's failure never touches another's answer
# ---------------------------------------------------------------------------


def _solo(hypotheses, lhs, rhs, registry, *, max_pairs):
    """What deciding one obligation alone reports: a fresh table per case."""
    alphabets = build_alphabets(smt.Solver(), hypotheses, [lhs, rhs], registry)
    stats = InclusionStats()
    for alphabet in alphabets:
        try:
            counterexample = decide(
                TransitionTable(alphabet), lhs, rhs, stats, max_pairs=max_pairs
            )
        except CompilationError as exc:
            return (False, None, str(exc)), stats
        if counterexample is not None:
            return (False, counterexample, None), stats
    return (True, None, None), stats


def test_member_over_budget_leaves_later_members_untouched():
    """A group whose first member exceeds ``max_pairs=1``: every later member
    equals its solo ``decide`` on verdict, witness, #Prod (``explored``) and
    the automaton states the walk reached (``total_transitions``)."""
    for seed in range(200):
        rng = random.Random(919_191 + seed)
        registry = _random_registry(rng)
        base_lhs = _random_sfa(rng, registry)
        base_rhs = _random_sfa(rng, registry)
        memo = AlphabetMemo()
        candidates = _group_members(rng, base_lhs, base_rhs)
        key = _key(memo, [], candidates[0], registry)
        members = [pair for pair in candidates if _key(memo, [], pair, registry) == key]
        if len(members) < 2:
            continue
        try:
            solos = [_solo([], lhs, rhs, registry, max_pairs=1) for lhs, rhs in members]
        except (AlphabetError, SolverError):
            continue
        first_error = solos[0][0][2]
        if first_error is None or all(outcome[2] for outcome, _ in solos[1:]):
            continue  # need an over-budget first member and a later clean one
        obligations = [_make_obligation([], lhs, rhs, i) for i, (lhs, rhs) in enumerate(members)]
        results = discharge_group(obligations, registry, memo, max_pairs=1)
        assert results[0]["error"] == first_error == "lazy product walk exceeded 1 pairs"
        for result, (outcome, stats) in zip(results, solos):
            assert (result["included"], result["counterexample"], result["error"]) == outcome
            assert result["inclusion"]["prod_states"] == stats.prod_states
            assert result["inclusion"]["total_transitions"] == stats.total_transitions
            assert result["inclusion"]["fa_inclusion_checks"] == stats.fa_inclusion_checks
        return
    pytest.fail("no seed produced an over-budget first member with a clean sibling")
