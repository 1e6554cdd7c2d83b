"""Differential tests: the engine's discharge loop vs the oracles.

The engine discharges cold obligations one by one
(``repro.engine.scheduler.discharge_group``); obligations that share the
cross-obligation alphabet key share one construction through the
``AlphabetMemo``, which replays its recorded bill.  That replay is a
*sharing* transformation, never a semantic one, so everything observable
must match deciding each obligation alone — with the production walk on a
fresh table and a fresh solver, and with the formula-pair oracle
(``oracles.lazy_inclusion_search``):

* identical verdicts, counterexample traces, #Prod and error messages on
  every obligation — on the full fast corpus,
* genuine witnesses: every counterexample replays on the compiled DFAs
  (accepted by lhs, rejected by rhs),
* and order independence: a member that fails (e.g. on the pair budget)
  leaves every later member's answer untouched.

The corpus is the suite's fast benchmarks plus >=100 seeded-random groups
of SFA pairs built over a shared literal pool (so they genuinely share the
memo key, like sibling obligations of one method do).

Below the walk, every row must be exactly the oracle's derivatives
(``oracles.derivative``, one per minterm): the table derives once per
minterm class of a state and copies the result across the class, and that
must never show — on seeded-random states over two- and three-operator
alphabets, on every state the fast-corpus walks reach, and on alphabets that
leave a qualifier undetermined, where the row raises the oracle's error of
the oracle's first failing minterm.
"""

import random

import pytest

from repro import smt
from repro.smt import sorts
from repro.sfa import symbolic as S
from repro.sfa.alphabet import (
    Alphabet,
    AlphabetError,
    AlphabetMemo,
    Character,
    build_alphabets,
    collect_literals,
)
from repro.sfa.batch import TransitionTable, decide, walk
from repro.sfa.derivatives import CompilationError
from repro.sfa.inclusion import InclusionChecker, InclusionStats
from repro.sfa.signatures import OperatorRegistry
from repro.smt.solver import SolverError
from repro.evaluation.runner import run_evaluation
from repro.engine.obligations import Obligation
from repro.engine.scheduler import discharge_group
from repro.suite.registry import all_benchmarks

from oracles import (
    compile_dfa,
    derivative,
    lazy_inclusion_search,
    oracle_check,
    record_discharges,
    record_tables,
)
from test_discharge_diff import (
    _random_context_literal,
    _random_event_literal,
    _random_registry,
    _random_sfa,
)

# ---------------------------------------------------------------------------
# Random group generator
# ---------------------------------------------------------------------------


def _group_members(rng: random.Random, lhs: S.Sfa, rhs: S.Sfa) -> list[tuple[S.Sfa, S.Sfa]]:
    """2-5 obligation pairs combined from one formula pool.

    Boolean/temporal combinators add no qualifier literals, so pairs drawn
    from the same pool usually share the alphabet content key — the shape
    sibling obligations of one method have (the invariant on one side,
    per-branch contexts on the other).  Callers still filter by the computed
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
    """The alphabet-memo key this pair's construction is filed under."""
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
    memo_hits = 0
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
        memo_hits += memo.hits

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
    # the generator must genuinely exercise the sharing path (memo replays
    # on same-key members) and failures
    assert memo_hits >= 30
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
# Corpus differential: full fast corpus
# ---------------------------------------------------------------------------


def test_fast_corpus_batch_equals_lazy(monkeypatch):
    """Every obligation the engine discharges on the fast corpus —
    positive methods and negative variants — equals the formula-pair
    oracle's answer: verdict, witness trace and #Prod.  And every row the
    corpus's walks built equals the oracle's derivatives, minterm by
    minterm."""
    discharged = rows = 0
    tables = record_tables(monkeypatch)
    for bench in all_benchmarks(include_slow=False):
        captured = record_discharges(monkeypatch)
        report = run_evaluation([bench])
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
    for table in tables:
        for state, row in enumerate(table.rows):
            if row is not None:
                assert row == _oracle_row(table, state), table.formulas[state]
                rows += 1
    assert rows >= 1000


# ---------------------------------------------------------------------------
# Sequential discharge: one member's failure never touches another's answer
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


# ---------------------------------------------------------------------------
# Row-level differential: one derivative per minterm class is exact
# ---------------------------------------------------------------------------


def _row_registry(rng: random.Random) -> OperatorRegistry:
    """Two or three operators, so most states mention only some of them."""
    registry = OperatorRegistry()
    registry.declare("row_a", [("x", sorts.ELEM)], sorts.UNIT)
    registry.declare("row_b", [("y", sorts.ELEM), ("m", smt.INT)], smt.BOOL)
    if rng.random() < 0.5:
        registry.declare("row_c", [("z", sorts.ELEM)], sorts.UNIT)
    return registry


def _row_sfa(rng: random.Random, registry, depth: int = 3) -> S.Sfa:
    """A random formula over every constructor the derivative recurses on."""
    if depth == 0 or rng.random() < 0.25:
        choice = rng.randrange(3)
        if choice == 0:
            signature = rng.choice(list(registry))
            return S.event(signature, _random_event_literal(rng, signature))
        if choice == 1:
            return S.guard(_random_context_literal(rng))
        return S.TOP
    children = [_row_sfa(rng, registry, depth - 1) for _ in range(2)]
    combinator = rng.randrange(7)
    if combinator == 0:
        return S.not_(children[0])
    if combinator == 1:
        return S.and_(*children)
    if combinator == 2:
        return S.or_(*children)
    if combinator == 3:
        return S.concat(*children)
    if combinator == 4:
        return S.next_(children[0])
    if combinator == 5:
        return S.until(*children)
    return S.eventually(children[0])


def _oracle_row(table: TransitionTable, state: int) -> list[int]:
    formula = table.formulas[state]
    context_truth = table.alphabet.context_truth()
    return [
        table.intern(derivative(formula, character, context_truth))
        for character in table.characters
    ]


def _oracle_first_error(table: TransitionTable, state: int) -> str | None:
    """The message of the oracle's first failing minterm, if any fails."""
    formula = table.formulas[state]
    context_truth = table.alphabet.context_truth()
    for character in table.characters:
        try:
            derivative(formula, character, context_truth)
        except CompilationError as exc:
            return str(exc)
    return None


def _check_reachable_rows(
    table: TransitionTable, starts, *, max_states: int = 150
) -> tuple[int, int]:
    """Every row breadth-first from ``starts`` equals the oracle's, or raises
    the oracle's first error.  Returns (rows compared, errors compared)."""
    frontier = [table.intern(start) for start in starts]
    seen = set(frontier)
    rows = errors = 0
    while frontier and len(seen) < max_states:
        state = frontier.pop(0)
        expected_error = _oracle_first_error(table, state)
        if expected_error is not None:
            with pytest.raises(CompilationError) as excinfo:
                table.row(state)
            assert str(excinfo.value) == expected_error
            errors += 1
            continue
        row = table.row(state)
        assert row == _oracle_row(table, state), table.formulas[state]
        rows += 1
        for target in row:
            if target not in seen:
                seen.add(target)
                frontier.append(target)
    return rows, errors


def _drop_literals(rng: random.Random, alphabet: Alphabet) -> Alphabet:
    """The alphabet with a random literal forgotten by some characters."""
    characters = []
    for character in alphabet.characters:
        values = list(character.literal_values)
        if values and rng.random() < 0.5:
            del values[rng.randrange(len(values))]
        characters.append(Character(character.signature, tuple(values)))
    return Alphabet(alphabet.context_case, tuple(characters))


@pytest.mark.parametrize("seed", range(30))
def test_rows_equal_oracle_derivatives_on_random_states(seed):
    """Every row reachable from two random formulas equals one oracle
    derivative per minterm."""
    rng = random.Random(737_373 + seed)
    registry = _row_registry(rng)
    starts = [_row_sfa(rng, registry), _row_sfa(rng, registry)]
    try:
        alphabets = build_alphabets(smt.Solver(), [], starts, registry)
    except (AlphabetError, SolverError):
        pytest.skip("alphabet construction exceeds the default budget")
    for alphabet in alphabets:
        rows, errors = _check_reachable_rows(TransitionTable(alphabet), starts)
        assert rows >= 1 and errors == 0


def test_forgotten_literals_raise_the_oracles_first_error():
    """With literals forgotten, every reachable row raises exactly the
    oracle's first failing minterm's error, or equals its derivatives; and
    across seeds such rows do fail."""
    failures = 0
    for seed in range(60):
        rng = random.Random(848_484 + seed)
        registry = _row_registry(rng)
        starts = [_row_sfa(rng, registry), _row_sfa(rng, registry)]
        try:
            alphabets = build_alphabets(smt.Solver(), [], starts, registry)
        except (AlphabetError, SolverError):
            continue
        for alphabet in alphabets:
            _, errors = _check_reachable_rows(
                TransitionTable(_drop_literals(rng, alphabet)), starts
            )
            failures += errors
    assert failures >= 10


def _three_operator_alphabet():
    """``row_a``/``row_b``/``row_c``, each split by one predicate literal."""
    registry = OperatorRegistry()
    for name, formal in (("row_a", "x"), ("row_b", "y"), ("row_c", "z")):
        registry.declare(name, [(formal, sorts.ELEM)], sorts.UNIT)
    p = smt.declare("row_p", [sorts.ELEM], smt.BOOL, method_predicate=True)
    literal = {
        signature.name: smt.apply(p, signature.formals[0]) for signature in registry
    }
    return registry, literal


def test_undetermined_qualifier_raises_at_the_first_failing_minterm():
    """Two undetermined minterms share a class, yet the row raises the
    message of the first one, not of the class's other member."""
    registry, literal = _three_operator_alphabet()
    row_a, row_b = registry["row_a"], registry["row_b"]
    q = smt.apply(
        smt.declare("row_q", [sorts.ELEM], smt.BOOL, method_predicate=True),
        row_a.formals[0],
    )
    p = literal["row_a"]
    alphabet = Alphabet(
        (),
        (
            Character(row_b, ((literal["row_b"], True),)),  # another operator
            Character(row_a, ((p, True),)),  # qualifier true
            Character(row_a, ((q, False),)),  # undetermined: p missing
            Character(row_a, ((p, False),)),  # undetermined: q missing
        ),
    )
    table = TransitionTable(alphabet)
    start = table.intern(S.globally(S.not_(S.event(row_a, smt.or_(p, q)))))
    expected = _oracle_first_error(table, start)
    assert expected is not None and expected.endswith(f"missing literals: {[p]}")
    with pytest.raises(CompilationError) as excinfo:
        table.row(start)
    assert str(excinfo.value) == expected


def test_a_one_operator_state_derives_once_per_class():
    """``□¬⟨row_a | p x⟩`` over six minterms of three operators has two
    classes: the one minterm its event accepts, and the rest.  Its row
    takes one derivative per class of each subformula — 7 — where one per
    minterm would take 4 subformulas × 6 minterms = 24."""
    registry, literal = _three_operator_alphabet()
    alphabet = Alphabet(
        (),
        tuple(
            Character(signature, ((literal[signature.name], value),))
            for signature in registry
            for value in (True, False)
        ),
    )
    state = S.globally(S.not_(S.event(registry["row_a"], literal["row_a"])))
    table = TransitionTable(alphabet)
    start = table.intern(state)
    row = table.row(start)
    assert row == _oracle_row(table, start)
    assert row == [table.intern(S.BOT)] + [start] * 5
    # the state, its until and its event: two classes each; the guard: one
    assert table.derivatives == 3 * 2 + 1
