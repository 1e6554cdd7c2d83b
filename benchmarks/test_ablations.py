"""Ablation benchmarks for the design choices called out in DESIGN.md.

* minterm satisfiability filtering (Algorithm 1's pruning) on/off,
* the production table walk vs the oracle deciders (formula-pair walk,
  compiled DFAs), and DFA minimisation of the compiled oracle,
* derivative-product inclusion vs complement-intersect-emptiness,
* infeasible-branch pruning in the checker on/off.

The oracle deciders live in ``tests/sfa/oracles.py``.
"""

import pytest

from repro import smt
from repro.smt.sorts import ELEM
from repro.sfa import symbolic as S
from repro.sfa.inclusion import InclusionChecker
from repro.suite.set_kvstore import set_kvstore
from repro.typecheck.checker import CheckerConfig
from tests.sfa.oracles import compile_dfa, oracle_check, use_exhaustive_enumeration


def _insert_obligation(bench):
    """The key inclusion obligation of Set/KVStore's insert method."""
    library = bench.library
    put = library.operators["put"]
    exists = library.operators["exists"]
    el = smt.var("el", ELEM)
    x = smt.var("x", ELEM)
    invariant = bench.invariant
    not_exists = S.not_(S.eventually(S.event_pinned(put, {"key": x})))
    exists_false = S.and_(S.event_pinned(exists, {"key": x}, result=smt.FALSE), S.last())
    context = S.concat(S.and_(invariant, not_exists), exists_false)
    put_event = S.and_(S.event_pinned(put, {"key": x, "value": x}), S.last())
    lhs = S.concat(context, put_event)
    return [smt.TRUE], lhs, invariant


@pytest.mark.parametrize("filter_unsat", [True, False], ids=["filtered", "unfiltered"])
def test_ablation_minterm_filtering(benchmark, filter_unsat):
    """Algorithm 1's satisfiability filter is needed for *completeness*, not just speed.

    Without it, unsatisfiable characters stay in the alphabet, the abstract
    language of the context grows, and the (valid) insert obligation is no
    longer provable — which is exactly what this ablation demonstrates.
    """
    bench = set_kvstore()
    hyps, lhs, rhs = _insert_obligation(bench)

    def run():
        checker = InclusionChecker(
            smt.Solver(), bench.library.operators, filter_unsat_minterms=filter_unsat
        )
        included = checker.check(hyps, lhs, rhs)
        return checker.stats, included

    stats, included = benchmark(run)
    assert included == filter_unsat  # provable only with the minterm filter
    benchmark.extra_info["obligation proved"] = included
    benchmark.extra_info["characters kept"] = stats.satisfiable_minterms
    benchmark.extra_info["avg sFA"] = round(stats.average_transitions, 1)


@pytest.mark.parametrize("strategy", ["guided", "exhaustive"])
def test_ablation_enumeration_strategy(benchmark, strategy, monkeypatch):
    """Solver-guided AllSAT enumeration vs the per-candidate minterm walk.

    Both must prove the same obligation; the extra info records the #SAT
    saving that motivates guided enumeration.  The per-candidate walk is the
    test oracle of ``tests/sfa/oracles.py``.
    """
    bench = set_kvstore()
    hyps, lhs, rhs = _insert_obligation(bench)
    if strategy == "exhaustive":
        use_exhaustive_enumeration(monkeypatch)

    def run():
        checker = InclusionChecker(smt.Solver(), bench.library.operators)
        included = checker.check(hyps, lhs, rhs)
        return checker, included

    checker, included = benchmark(run)
    assert included
    benchmark.extra_info["#SAT"] = checker.solver.stats.queries
    benchmark.extra_info["cache hits"] = checker.solver.stats.cache_hits
    benchmark.extra_info["models enumerated"] = checker.solver.stats.models_enumerated


@pytest.mark.parametrize("minimize", [False, True], ids=["raw", "minimized"])
def test_ablation_dfa_minimization(benchmark, minimize):
    """Compiled-oracle DFA sizes with and without Moore minimisation."""
    from repro.sfa.alphabet import build_alphabets

    bench = set_kvstore()
    hyps, lhs, rhs = _insert_obligation(bench)
    alphabets = build_alphabets(smt.Solver(), hyps, [lhs, rhs], bench.library.operators)

    def run():
        sizes = []
        for alphabet in alphabets:
            lhs_dfa, rhs_dfa = compile_dfa(lhs, alphabet), compile_dfa(rhs, alphabet)
            if minimize:
                lhs_dfa, rhs_dfa = lhs_dfa.minimize(), rhs_dfa.minimize()
            assert lhs_dfa.is_subset_of(rhs_dfa)
            sizes += [lhs_dfa.num_transitions, rhs_dfa.num_transitions]
        return sum(sizes) / len(sizes)

    benchmark.extra_info["avg sFA"] = round(benchmark(run), 1)


@pytest.mark.parametrize("oracle", ["lazy", "compiled"])
def test_ablation_discharge_mode(benchmark, oracle):
    """The production table walk vs an oracle decider on the same query:
    the formula-pair walk (``lazy``) or compiling both DFAs (``compiled``,
    Algorithm 1).  Verdicts must agree; the extra info records the cost."""
    bench = set_kvstore()
    hyps, lhs, rhs = _insert_obligation(bench)
    operators = bench.library.operators
    checker = InclusionChecker(smt.Solver(), operators)
    assert checker.check(hyps, lhs, rhs)

    def run():
        return oracle_check(hyps, lhs, rhs, operators, compiled=oracle == "compiled")

    result = benchmark(run)
    assert result.included
    benchmark.extra_info["#prod-states (table walk)"] = checker.stats.prod_states
    benchmark.extra_info[f"#prod-states ({oracle} oracle)"] = result.prod_states


@pytest.mark.parametrize("strategy", ["product-walk", "complement-intersect"])
def test_ablation_inclusion_strategy(benchmark, strategy):
    """Compare the on-the-fly product inclusion with complement+intersect emptiness."""
    from repro.sfa.alphabet import build_alphabets

    bench = set_kvstore()
    hyps, lhs, rhs = _insert_obligation(bench)
    solver = smt.Solver()
    alphabets = build_alphabets(solver, hyps, [lhs, rhs], bench.library.operators)

    def run():
        for alphabet in alphabets:
            lhs_dfa = compile_dfa(lhs, alphabet)
            rhs_dfa = compile_dfa(rhs, alphabet)
            if strategy == "product-walk":
                assert lhs_dfa.is_subset_of(rhs_dfa)
            else:
                assert lhs_dfa.intersect(rhs_dfa.complement()).is_empty()
        return len(alphabets)

    benchmark(run)


@pytest.mark.parametrize("prune", [True, False], ids=["prune-infeasible", "check-all-paths"])
def test_ablation_branch_pruning(benchmark, prune):
    bench = set_kvstore()
    config = CheckerConfig(prune_infeasible_branches=prune)

    def run():
        checker = bench.make_checker(config)
        result = bench.verify_method("insert", checker)
        assert result.verified, result.error
        return result

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["#SAT"] = result.stats.smt_queries
    benchmark.extra_info["#FA⊆"] = result.stats.fa_inclusion_checks
