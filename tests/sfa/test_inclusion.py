"""Tests for the Algorithm-1 SFA inclusion checker.

The key scenario mirrors the paper's verification story: the representation
invariant ``I`` is preserved exactly when ``(context ; new events) ⊆ I``.
"""

from repro import smt
from repro.smt import sorts
from repro.sfa import symbolic as S
from repro.sfa.inclusion import InclusionChecker


def insert_once_invariant(set_ops, el):
    ins = S.event_pinned(set_ops["insert"], [el])
    return S.globally(S.implies(ins, S.next_(S.not_(S.eventually(ins)))))


def not_yet_inserted(set_ops, el):
    return S.not_(S.eventually(S.event_pinned(set_ops["insert"], [el])))


def test_trivial_inclusions(set_ops, solver):
    checker = InclusionChecker(solver, set_ops)
    el = smt.var("inc_el", sorts.ELEM)
    inv = insert_once_invariant(set_ops, el)
    assert checker.check([], S.BOT, inv)
    assert checker.check([], inv, inv)
    assert checker.check([], inv, S.any_trace())
    assert not checker.check([], S.any_trace(), inv)


def test_insert_preserves_invariant_when_not_member(set_ops, solver):
    """(I ∧ el not yet inserted) ; ⟨insert el⟩∧LAST  ⊆  I."""
    checker = InclusionChecker(solver, set_ops)
    el = smt.var("inc2_el", sorts.ELEM)
    inv = insert_once_invariant(set_ops, el)
    context = S.and_(inv, not_yet_inserted(set_ops, el))
    effect = S.and_(S.event_pinned(set_ops["insert"], [el]), S.last())
    assert checker.check([], S.concat(context, effect), inv)
    assert checker.stats.fa_inclusion_checks >= 1
    # the walk explores product pairs; s_FA is the automaton share it reached
    assert checker.stats.prod_states > 0
    assert checker.stats.automata_built == 2 * checker.stats.fa_inclusion_checks
    assert checker.stats.average_transitions > 0


def test_insert_can_break_invariant_without_membership_check(set_ops, solver):
    """I ; ⟨insert el⟩∧LAST ⊄ I — the element may already be present."""
    checker = InclusionChecker(solver, set_ops)
    el = smt.var("inc3_el", sorts.ELEM)
    inv = insert_once_invariant(set_ops, el)
    effect = S.and_(S.event_pinned(set_ops["insert"], [el]), S.last())
    result = checker.check_detailed([], S.concat(inv, effect), inv)
    assert not result.included
    assert result.counterexample  # a witness trace is produced


def test_mem_false_event_also_protects_insert(set_ops, solver):
    """Conditioning on an observed ``mem el = false`` event plus the invariant."""
    checker = InclusionChecker(solver, set_ops)
    el = smt.var("inc4_el", sorts.ELEM)
    inv = insert_once_invariant(set_ops, el)
    # A context recording that mem(el) returned false and that no insert of el
    # has happened since the start (the Set library's exists-style signature).
    context = S.and_(inv, not_yet_inserted(set_ops, el))
    mem_event = S.and_(S.event_pinned(set_ops["mem"], [el], result=smt.FALSE), S.last())
    after_mem = S.concat(context, mem_event)
    effect = S.and_(S.event_pinned(set_ops["insert"], [el]), S.last())
    assert checker.check([], S.concat(after_mem, effect), inv)


def test_hypotheses_can_make_inclusion_hold(set_ops, solver):
    """Γ hypotheses participate in minterm satisfiability."""
    checker = InclusionChecker(solver, set_ops)
    el = smt.var("inc5_el", sorts.ELEM)
    x = smt.var("inc5_x", sorts.ELEM)
    insert = set_ops["insert"]
    # context: only x has ever been inserted; effect: insert el.
    only_x = S.globally(S.event(insert, smt.eq(insert.arg_vars[0], x)))
    target = S.globally(S.event(insert, smt.eq(insert.arg_vars[0], el)))
    lhs = only_x
    # Without knowing x == el the inclusion fails...
    assert not checker.check([], lhs, target)
    # ...but under the hypothesis x == el it holds.
    assert checker.check([smt.eq(x, el)], lhs, target)


def test_is_empty_and_equivalent(set_ops, solver):
    checker = InclusionChecker(solver, set_ops)
    el = smt.var("inc6_el", sorts.ELEM)
    ins = S.event_pinned(set_ops["insert"], [el])
    assert checker.is_empty([], S.BOT)
    assert checker.is_empty([], S.and_(ins, S.not_(ins)))
    assert not checker.is_empty([], ins)
    assert checker.equivalent([], S.globally(ins), S.not_(S.eventually(S.not_(ins))))


def test_stats_snapshot_and_merge(set_ops, solver):
    from repro.sfa.inclusion import InclusionStats

    checker = InclusionChecker(solver, set_ops)
    el = smt.var("inc8_el", sorts.ELEM)
    inv = insert_once_invariant(set_ops, el)
    checker.check([], inv, inv)
    snap = checker.stats.snapshot()
    assert snap.fa_inclusion_checks == checker.stats.fa_inclusion_checks
    merged = InclusionStats()
    merged.merge(snap)
    merged.merge(snap)
    assert merged.fa_inclusion_checks == 2 * snap.fa_inclusion_checks
