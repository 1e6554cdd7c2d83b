"""Differential tests: the production inclusion decider vs the oracles.

Production decides every inclusion with the interned transition-table walk
(``repro.sfa.batch``); ``oracles.py`` keeps two independent deciders — the
formula-pair walk and compiled DFAs.  :meth:`InclusionChecker.check_detailed`
must be observationally identical to them:

* identical verdicts on every query,
* identical counterexample traces (every walk is breadth-first over the same
  derivative states, so the shortest witness coincides),
* identical ``#Prod`` to the formula-pair walk, which prunes the same pairs.

The corpus is the suite's fast benchmarks — every obligation the engine
discharges, re-decided through ``check_detailed`` and the oracle — plus
≥100 seeded-random SFA pairs.
"""

import random

import pytest

from repro import smt
from repro.smt import sorts
from repro.sfa import symbolic as S
from repro.sfa.alphabet import build_alphabets
from repro.sfa.inclusion import InclusionChecker
from repro.sfa.signatures import OperatorRegistry
from repro.suite.registry import all_benchmarks
from repro.typecheck.checker import CheckerConfig

from oracles import compile_dfa, lazy_inclusion_search, oracle_check, record_discharges

# ---------------------------------------------------------------------------
# Random-case generators (plain `random`, deterministic seeds)
# ---------------------------------------------------------------------------

_PREDICATES = [
    smt.declare(f"dis_p{i}", [sorts.ELEM], smt.BOOL, method_predicate=True)
    for i in range(3)
]
_CTX_VARS = [smt.var(f"dis_c{i}", sorts.ELEM) for i in range(3)]
_INT_VARS = [smt.var(f"dis_n{i}", smt.INT) for i in range(3)]


def _random_registry(rng: random.Random) -> OperatorRegistry:
    registry = OperatorRegistry()
    registry.declare("op_a", [("x", sorts.ELEM)], sorts.UNIT)
    if rng.random() < 0.5:
        registry.declare("op_b", [("y", sorts.ELEM), ("m", smt.INT)], smt.BOOL)
    return registry


def _random_context_literal(rng: random.Random) -> smt.Term:
    kind = rng.randrange(3)
    if kind == 0:
        return smt.apply(rng.choice(_PREDICATES), rng.choice(_CTX_VARS))
    if kind == 1:
        return smt.lt(rng.choice(_INT_VARS), rng.choice(_INT_VARS))
    return smt.eq(rng.choice(_CTX_VARS), rng.choice(_CTX_VARS))


def _random_event_literal(rng: random.Random, signature) -> smt.Term:
    formals = [f for f in signature.formals if f.sort in (smt.INT, sorts.ELEM)]
    if not formals:
        return smt.TRUE
    formal = rng.choice(formals)
    if formal.sort == smt.INT:
        if rng.random() < 0.5:
            return smt.lt(formal, rng.choice(_INT_VARS))
        return smt.le(rng.choice(_INT_VARS), formal)
    if rng.random() < 0.5:
        return smt.apply(rng.choice(_PREDICATES), formal)
    return smt.eq(formal, rng.choice(_CTX_VARS))


def _random_sfa(rng: random.Random, registry, depth: int = 3) -> S.Sfa:
    if depth == 0 or rng.random() < 0.3:
        choice = rng.randrange(4)
        if choice == 0:
            return S.TOP
        if choice == 1:
            signature = rng.choice(list(registry))
            return S.event(signature, _random_event_literal(rng, signature))
        if choice == 2:
            return S.guard(_random_context_literal(rng))
        return S.event(rng.choice(list(registry)), smt.TRUE)
    combinator = rng.randrange(5)
    if combinator == 0:
        return S.and_(_random_sfa(rng, registry, depth - 1), _random_sfa(rng, registry, depth - 1))
    if combinator == 1:
        return S.or_(_random_sfa(rng, registry, depth - 1), _random_sfa(rng, registry, depth - 1))
    if combinator == 2:
        return S.not_(_random_sfa(rng, registry, depth - 1))
    if combinator == 3:
        return S.next_(_random_sfa(rng, registry, depth - 1))
    return S.concat(_random_sfa(rng, registry, depth - 1), _random_sfa(rng, registry, depth - 1))


def _assert_matches_oracles(hypotheses, lhs, rhs, operators, axioms=()):
    """check_detailed ≡ the formula-pair oracle (verdict, witness, #Prod),
    and ≡ the compiled-DFA oracle on verdict and witness."""
    checker = InclusionChecker(smt.Solver(axioms=list(axioms)), operators)
    result = checker.check_detailed(list(hypotheses), lhs, rhs)
    lazy = oracle_check(hypotheses, lhs, rhs, operators, axioms=axioms)
    compiled = oracle_check(hypotheses, lhs, rhs, operators, axioms=axioms, compiled=True)
    assert (result.included, result.counterexample) == (lazy.included, lazy.counterexample)
    assert checker.stats.prod_states == lazy.prod_states
    assert (compiled.included, compiled.counterexample) == (lazy.included, lazy.counterexample)
    return result


# ---------------------------------------------------------------------------
# Random differential: ≥ 100 check_detailed vs oracle queries
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(120))
def test_random_pairs_agree(seed):
    rng = random.Random(424_243 + seed)
    registry = _random_registry(rng)
    lhs = _random_sfa(rng, registry)
    rhs = _random_sfa(rng, registry)
    hypotheses = []
    if rng.random() < 0.3:
        hypothesis = _random_context_literal(rng)
        if not (hypothesis.is_true or hypothesis.is_false):
            hypotheses.append(hypothesis)
    _assert_matches_oracles(hypotheses, lhs, rhs, registry)


@pytest.mark.parametrize("seed", range(40))
def test_random_lazy_witnesses_are_genuine(seed):
    """Every oracle counterexample is accepted by lhs and rejected by rhs."""
    rng = random.Random(9_191_919 + seed)
    registry = _random_registry(rng)
    lhs = _random_sfa(rng, registry)
    rhs = _random_sfa(rng, registry)
    solver = smt.Solver()
    alphabets = build_alphabets(solver, [], [lhs, rhs], registry)
    for alphabet in alphabets:
        witness, explored = lazy_inclusion_search(lhs, rhs, alphabet)
        lhs_dfa = compile_dfa(lhs, alphabet)
        rhs_dfa = compile_dfa(rhs, alphabet)
        if witness is None:
            assert lhs_dfa.is_subset_of(rhs_dfa)
        else:
            assert lhs_dfa.accepts_word(list(witness))
            assert not rhs_dfa.accepts_word(list(witness))
            # the walk never explores more pairs than the compiled product
            _, compiled_explored = lhs_dfa.counterexample_search(rhs_dfa)
            assert explored <= compiled_explored


# ---------------------------------------------------------------------------
# Suite-benchmark differential: every discharged obligation of the corpus
# ---------------------------------------------------------------------------


def _corpus_differential(bench, captured):
    assert captured, "the run discharged nothing"
    operators, axioms = bench.library.operators, bench.library.axioms
    for obligation, engine_result in captured:
        assert engine_result["error"] is None
        result = _assert_matches_oracles(
            obligation.hypotheses, obligation.lhs, obligation.rhs, operators, axioms
        )
        assert (engine_result["included"], engine_result["counterexample"]) == (
            result.included,
            result.counterexample,
        )


@pytest.mark.parametrize(
    "key", [bench.key for bench in all_benchmarks(include_slow=False)]
)
def test_suite_verification_agrees(key, monkeypatch):
    bench = next(b for b in all_benchmarks(include_slow=False) if b.key == key)
    captured = record_discharges(monkeypatch)
    stats = bench.verify_all(bench.make_checker(CheckerConfig(workers=1)))
    assert stats.all_verified
    _corpus_differential(bench, captured)


@pytest.mark.parametrize(
    "key", [bench.key for bench in all_benchmarks(include_slow=False)]
)
def test_suite_negative_variants_agree(key, monkeypatch):
    """Known-bad variants are rejected with the oracle's witness trace."""
    bench = next(b for b in all_benchmarks(include_slow=False) if b.key == key)
    if not bench.negative_variants:
        pytest.skip(f"{key} has no negative variants")
    for variant in bench.negative_variants:
        captured = record_discharges(monkeypatch)
        checker = bench.make_checker(CheckerConfig(workers=1))
        result = bench.verify_negative_variant(variant, checker)
        assert not result.verified
        _corpus_differential(bench, captured)
        if result.counterexample:
            assert any(
                engine_result["counterexample"] == result.counterexample
                for _, engine_result in captured
            )
