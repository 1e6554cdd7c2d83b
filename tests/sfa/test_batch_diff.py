"""Differential tests: grouped set-at-a-time discharge vs the oracles.

The engine groups cold obligations by their cross-obligation alphabet key
and discharges each group against one shared transition table
(``repro.sfa.batch``).  Grouping is a *sharing* transformation, never a
semantic one, so everything observable must match deciding each obligation
alone with the formula-pair oracle (``oracles.lazy_inclusion_search``):

* identical verdicts, counterexample traces, #Prod and error messages on
  every obligation — on the full fast corpus, for every solver backend,
* genuine witnesses: every counterexample replays on the compiled DFAs
  (accepted by lhs, rejected by rhs),
* and the coalescing claim: every multi-member group *executes* strictly
  fewer solver queries than the deterministic tables bill.

The corpus is the suite's fast benchmarks plus >=100 seeded-random groups
of SFA pairs built over a shared literal pool (so they genuinely share the
grouping key, like sibling obligations of one method do).
"""

import pickle
import random

import pytest

from repro import smt
from repro.sfa import symbolic as S
from repro.sfa.alphabet import AlphabetError, AlphabetMemo, build_alphabets
from repro.sfa.batch import TransitionTable, _lockstep_search, discharge_group
from repro.sfa.derivatives import CompilationError
from repro.sfa.inclusion import InclusionChecker
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


# ---------------------------------------------------------------------------
# Table-level differential: the lockstep walk IS the lazy walk
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(40))
def test_lockstep_search_matches_lazy_walk_exactly(seed):
    """Per member, the shared-table BFS must replicate ``lazy_inclusion_search``
    step for step: same witness indices, same explored count — and witnesses
    must replay genuinely on the compiled DFAs."""
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
        walks = _lockstep_search(table, members)
        for (lhs, rhs), walk in zip(members, walks):
            witness, explored = lazy_inclusion_search(lhs, rhs, alphabet)
            assert walk.witness == witness
            assert walk.explored == explored
            assert walk.error is None
            if witness is not None:
                lhs_dfa = compile_dfa(lhs, alphabet)
                rhs_dfa = compile_dfa(rhs, alphabet)
                assert lhs_dfa.accepts_word(list(witness))
                assert not rhs_dfa.accepts_word(list(witness))


def test_lockstep_budget_error_matches_lazy_message():
    """A member that trips ``max_pairs`` reports the exact lazy error."""
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
            table = TransitionTable(alphabet)
            walk = _lockstep_search(table, [(lhs, rhs)], max_pairs=1)[0]
            assert walk.error is not None
            assert str(walk.error) == str(excinfo.value)
            assert str(walk.error) == "lazy product walk exceeded 1 pairs"
            return
    pytest.fail("no seed produced a product walk beyond one pair")


# ---------------------------------------------------------------------------
# Group-level differential: >=100 random groups vs the lazy checker
# ---------------------------------------------------------------------------


def test_discharge_group_matches_lazy_checker_on_random_groups():
    """>=100 random groups: every member's verdict, trace, error and
    deterministic counters equal an independent lazy check; every clean
    multi-member group executes strictly fewer queries than it bills."""
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
        key = memo.key_for(hypotheses, list(candidates[0]), registry)
        members = [
            pair
            for pair in candidates
            if memo.key_for(hypotheses, list(pair), registry) == key
        ]
        obligations = [
            _make_obligation(hypotheses, lhs, rhs, i)
            for i, (lhs, rhs) in enumerate(members)
        ]
        results, record = discharge_group(obligations, registry, memo)
        total_groups += 1
        assert record.members == len(members)
        if record.members > 1:
            multi_member_groups += 1
            if record.error is None:
                # the coalescing claim, per group: one construction executed,
                # the recorded bill replayed into every member
                assert record.queries_executed < record.queries_billed

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
        oracle = InclusionChecker(
            smt.Solver(), registry, max_literals=0, strategy="exhaustive"
        )
        try:
            oracle.check_detailed([], lhs, rhs)
            continue  # no qualifier literals: a zero budget suffices
        except (AlphabetError, SolverError) as exc:
            expected_message = str(exc)
        memo = AlphabetMemo()
        obligations = [_make_obligation([], lhs, rhs, i) for i in range(3)]
        results, record = discharge_group(
            obligations, registry, memo, max_literals=0, strategy="exhaustive"
        )
        assert record.error == expected_message
        assert record.queries_executed == 0
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
    oracle's answer: verdict, witness trace and #Prod; and every clean
    multi-member group executes strictly fewer queries than it bills."""
    config = CheckerConfig(backend=backend, workers=1)
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
        records = report.batch_group_records()
        assert sum(record["members"] for record in records) == len(captured)
        for record in records:
            if record["members"] > 1 and not record["error"]:
                assert record["queries_executed"] < record["queries_billed"]
    assert discharged >= 60


# ---------------------------------------------------------------------------
# Memo keys crossing the pool boundary must stay plain data
# ---------------------------------------------------------------------------


def test_group_payload_memo_keys_are_picklable():
    """Worker results carry built memo keys back to the parent as hints; the
    keys must survive the pool boundary (plain ints/strings/bools only)."""
    rng = random.Random(12)
    registry = _random_registry(rng)
    lhs = _random_sfa(rng, registry)
    rhs = _random_sfa(rng, registry)
    memo = AlphabetMemo()
    before = len(memo.session_built_keys)
    discharge_group([_make_obligation([], lhs, rhs, 0)], registry, memo)
    built = memo.session_built_keys[before:]
    assert built, "a cold group must record its construction key"
    restored = pickle.loads(pickle.dumps(built))
    assert restored == built
    assert all(key in memo for key in built)
