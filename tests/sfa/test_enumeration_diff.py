"""Differential tests: guided vs exhaustive minterm enumeration.

The solver-guided (AllSAT/blocking-clause) enumeration must be
observationally identical to the original per-candidate exhaustive walk
(``oracles.exhaustive_enumerate_alphabets``):

* :func:`build_alphabets` yields the same context cases and the same minterms
  per operator, in the same order;
* :class:`InclusionChecker` returns identical :class:`InclusionResult`s
  (including counterexample traces);
* whole-benchmark verification agrees on every suite row.

The corpus is the suite's benchmarks plus several hundred randomly generated
literal sets and random symbolic automata (seeded ``random`` — reproducible,
no extra dependencies).
"""

import random

import pytest

from repro import smt
from repro.smt import sorts
from repro.sfa import symbolic as S
from repro.sfa.alphabet import build_alphabets, collect_literals
from repro.sfa.inclusion import InclusionChecker
from repro.sfa.signatures import OperatorRegistry
from repro.suite.registry import all_benchmarks

from oracles import exhaustive_enumerate_alphabets, use_exhaustive_enumeration

# ---------------------------------------------------------------------------
# Random-case generators (plain `random`, deterministic seeds)
# ---------------------------------------------------------------------------

_PREDICATES = [
    smt.declare(f"diff_p{i}", [sorts.ELEM], smt.BOOL, method_predicate=True)
    for i in range(3)
]
_CTX_VARS = [smt.var(f"diff_c{i}", sorts.ELEM) for i in range(3)]
_INT_VARS = [smt.var(f"diff_n{i}", smt.INT) for i in range(3)]


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


def _random_literal_case(rng: random.Random):
    """A random registry plus formulas inducing random literal sets."""
    registry = _random_registry(rng)
    parts = []
    for signature in registry:
        for _ in range(rng.randrange(3)):
            literal = _random_event_literal(rng, signature)
            if literal.is_true or literal.is_false:
                continue
            parts.append(S.eventually(S.event(signature, literal)))
    for _ in range(rng.randrange(3)):
        literal = _random_context_literal(rng)
        if literal.is_true or literal.is_false:
            continue
        parts.append(S.guard(literal))
    formula = S.or_(*parts) if parts else S.TOP
    hypotheses = []
    if rng.random() < 0.3:
        hypothesis = _random_context_literal(rng)
        if not (hypothesis.is_true or hypothesis.is_false):
            hypotheses.append(hypothesis)
    return registry, hypotheses, formula


def _random_sfa(rng: random.Random, registry, depth: int = 3) -> S.Sfa:
    if depth == 0 or rng.random() < 0.3:
        choice = rng.randrange(4)
        if choice == 0:
            return S.TOP
        if choice == 1:
            signature = rng.choice(list(registry))
            literal = _random_event_literal(rng, signature)
            return S.event(signature, literal)
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


# ---------------------------------------------------------------------------
# Alphabet-level differential: ≥ 200 random literal-set cases
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(250))
def test_random_literal_sets_agree(seed):
    rng = random.Random(1_000_003 * (seed + 1))
    registry, hypotheses, formula = _random_literal_case(rng)
    guided = build_alphabets(smt.Solver(), hypotheses, [formula], registry)
    exhaustive = exhaustive_enumerate_alphabets(
        smt.Solver(), hypotheses, collect_literals([formula], registry), registry
    )
    assert guided == exhaustive


@pytest.mark.parametrize("seed", range(60))
def test_random_inclusions_agree(seed, monkeypatch):
    rng = random.Random(7_777_777 + seed)
    registry = _random_registry(rng)
    lhs = _random_sfa(rng, registry)
    rhs = _random_sfa(rng, registry)
    hypotheses = []
    if rng.random() < 0.3:
        hypothesis = _random_context_literal(rng)
        if not (hypothesis.is_true or hypothesis.is_false):
            hypotheses.append(hypothesis)

    guided = InclusionChecker(smt.Solver(), registry).check_detailed(hypotheses, lhs, rhs)
    use_exhaustive_enumeration(monkeypatch)
    exhaustive = InclusionChecker(smt.Solver(), registry).check_detailed(hypotheses, lhs, rhs)
    assert guided.included == exhaustive.included
    assert guided.counterexample == exhaustive.counterexample


# ---------------------------------------------------------------------------
# Suite-benchmark differential
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "key", [bench.key for bench in all_benchmarks(include_slow=False)]
)
def test_suite_alphabets_agree(key):
    bench = next(b for b in all_benchmarks(include_slow=False) if b.key == key)

    operators = bench.library.operators
    max_literals = max(24, bench.max_literals)
    guided = build_alphabets(
        smt.Solver(axioms=list(bench.library.axioms)),
        [smt.TRUE],
        [bench.invariant],
        operators,
        max_literals=max_literals,
    )
    exhaustive = exhaustive_enumerate_alphabets(
        smt.Solver(axioms=list(bench.library.axioms)),
        [smt.TRUE],
        collect_literals([bench.invariant], operators),
        operators,
        max_literals=max_literals,
    )
    assert guided == exhaustive
    # same context cases, same minterms per operator
    for alphabet_g, alphabet_e in zip(guided, exhaustive):
        assert alphabet_g.context_case == alphabet_e.context_case
        assert alphabet_g.characters == alphabet_e.characters


@pytest.mark.parametrize(
    "key", [bench.key for bench in all_benchmarks(include_slow=False)]
)
def test_suite_verification_agrees(key, monkeypatch):
    from repro.typecheck.checker import CheckerConfig

    bench = next(b for b in all_benchmarks(include_slow=False) if b.key == key)

    def outcomes():
        stats = bench.verify_all(bench.make_checker(CheckerConfig()))
        return [(result.method, result.verified, result.error) for result in stats.method_results]

    guided = outcomes()
    use_exhaustive_enumeration(monkeypatch)
    assert outcomes() == guided
