"""Tests for the derivative-based DFA compilation.

Beyond unit tests, the property tests check the compiler against the boolean
structure of the DFA algebra: compiling ``A ∧ B`` must produce an automaton
equivalent to the product of the automata of ``A`` and ``B``, etc.
"""

from hypothesis import given, settings, strategies as st

from repro import smt
from repro.smt import sorts
from repro.sfa import symbolic as S
from repro.sfa.alphabet import build_alphabets
from repro.sfa.derivatives import nullable

from oracles import compile_dfa


def simple_alphabet(set_ops, solver, el):
    formula = S.eventually(S.event_pinned(set_ops["insert"], [el]))
    return build_alphabets(solver, [], [formula], set_ops)[0]


def char_index(alphabet, op_name, wanted_truth=None):
    for i, c in enumerate(alphabet.characters):
        if c.signature.name != op_name:
            continue
        if wanted_truth is None or all(c.truth()[k] == v for k, v in wanted_truth.items()):
            return i
    raise AssertionError("character not found")


def test_nullable():
    assert nullable(S.TOP)
    assert not nullable(S.BOT)
    assert nullable(S.any_trace())
    assert not nullable(S.any_event())
    assert nullable(S.last())
    assert not nullable(S.next_(S.TOP))
    assert nullable(S.and_(S.TOP, S.last()))
    assert nullable(S.concat(S.any_trace(), S.any_trace()))


def test_compile_eventually_insert_el(set_ops, solver):
    el = smt.var("dv_el", sorts.ELEM)
    alphabet = simple_alphabet(set_ops, solver, el)
    formula = S.eventually(S.event_pinned(set_ops["insert"], [el]))
    dfa = compile_dfa(formula, alphabet)

    ins_el = char_index(alphabet, "insert", {smt.eq(set_ops["insert"].arg_vars[0], el): True})
    ins_other = char_index(alphabet, "insert", {smt.eq(set_ops["insert"].arg_vars[0], el): False})
    mem_any = char_index(alphabet, "mem")

    assert not dfa.accepts_word([])
    assert dfa.accepts_word([ins_el])
    assert dfa.accepts_word([mem_any, ins_other, ins_el, mem_any])
    assert not dfa.accepts_word([ins_other, mem_any])


def test_compile_insert_once_invariant(set_ops, solver):
    el = smt.var("dv2_el", sorts.ELEM)
    alphabet = simple_alphabet(set_ops, solver, el)
    ins = S.event_pinned(set_ops["insert"], [el])
    invariant = S.globally(S.implies(ins, S.next_(S.not_(S.eventually(ins)))))
    dfa = compile_dfa(invariant, alphabet)

    ins_el = char_index(alphabet, "insert", {smt.eq(set_ops["insert"].arg_vars[0], el): True})
    ins_other = char_index(alphabet, "insert", {smt.eq(set_ops["insert"].arg_vars[0], el): False})

    assert dfa.accepts_word([])
    assert dfa.accepts_word([ins_el])
    assert dfa.accepts_word([ins_other, ins_el, ins_other])
    assert not dfa.accepts_word([ins_el, ins_el])
    assert not dfa.accepts_word([ins_el, ins_other, ins_el])


def test_compile_concat_and_last(set_ops, solver):
    el = smt.var("dv3_el", sorts.ELEM)
    alphabet = simple_alphabet(set_ops, solver, el)
    ins = S.event_pinned(set_ops["insert"], [el])
    formula = S.concat(S.any_trace(), S.and_(ins, S.last()))
    dfa = compile_dfa(formula, alphabet)

    ins_el = char_index(alphabet, "insert", {smt.eq(set_ops["insert"].arg_vars[0], el): True})
    ins_other = char_index(alphabet, "insert", {smt.eq(set_ops["insert"].arg_vars[0], el): False})

    assert dfa.accepts_word([ins_el])
    assert dfa.accepts_word([ins_other, ins_el])
    assert not dfa.accepts_word([])
    assert not dfa.accepts_word([ins_el, ins_other])


def test_guard_depends_on_context_case(set_ops, solver):
    el = smt.var("dv4_el", sorts.ELEM)
    special = smt.declare("dv4_special", [sorts.ELEM], smt.BOOL, method_predicate=True)
    formula = S.or_(
        S.guard(smt.apply(special, el)),
        S.event_pinned(set_ops["insert"], [el]),
    )
    alphabets = build_alphabets(solver, [], [formula], set_ops)
    by_case = {alphabet.context_case[0][1]: alphabet for alphabet in alphabets}
    dfa_true = compile_dfa(formula, by_case[True])
    dfa_false = compile_dfa(formula, by_case[False])
    mem_true = char_index(by_case[True], "mem")
    mem_false = char_index(by_case[False], "mem")
    # under special(el): the guard accepts any single event
    assert dfa_true.accepts_word([mem_true])
    # otherwise only the pinned insert event is accepted
    assert not dfa_false.accepts_word([mem_false])


# -- algebraic property tests ---------------------------------------------------------


def formula_strategy(set_ops):
    el = smt.var("prop_el", sorts.ELEM)
    insert = set_ops["insert"]
    mem = set_ops["mem"]
    atoms = st.sampled_from(
        [
            S.event_pinned(insert, [el]),
            S.event(insert),
            S.event_pinned(mem, [el], result=smt.TRUE),
            S.event(mem),
            S.any_event(),
        ]
    )
    return st.recursive(
        atoms,
        lambda inner: st.one_of(
            st.tuples(inner).map(lambda t: S.not_(t[0])),
            st.tuples(inner, inner).map(lambda t: S.and_(*t)),
            st.tuples(inner, inner).map(lambda t: S.or_(*t)),
            st.tuples(inner).map(lambda t: S.next_(t[0])),
            st.tuples(inner).map(lambda t: S.eventually(t[0])),
            st.tuples(inner).map(lambda t: S.globally(t[0])),
            st.tuples(inner, inner).map(lambda t: S.concat(*t)),
        ),
        max_leaves=4,
    )


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_boolean_structure_matches_dfa_products(data, set_ops):
    solver = smt.Solver()
    strategy = formula_strategy(set_ops)
    a = data.draw(strategy)
    b = data.draw(strategy)
    alphabet = build_alphabets(solver, [], [a, b], set_ops)[0]

    dfa_a = compile_dfa(a, alphabet)
    dfa_b = compile_dfa(b, alphabet)

    assert compile_dfa(S.and_(a, b), alphabet).equivalent(dfa_a.intersect(dfa_b))
    assert compile_dfa(S.or_(a, b), alphabet).equivalent(dfa_a.union(dfa_b))
    assert compile_dfa(S.not_(a), alphabet).equivalent(dfa_a.complement())


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_temporal_dualities(data, set_ops):
    solver = smt.Solver()
    strategy = formula_strategy(set_ops)
    a = data.draw(strategy)
    alphabet = build_alphabets(solver, [], [a], set_ops)[0]
    # □A ≡ ¬♦¬A by definition; check ♦A ≡ ⊤* ; (A ∧ one-or-more-events)? Instead
    # verify the expansion laws: ♦A ≡ A' where A' = A ∨ ◯♦A restricted to
    # non-empty traces is awkward syntactically, so check the simpler fixpoint
    # property through the compiled automata: L(♦A) = L(A ∨ ◯ ♦ A) on traces of
    # length ≥ 1, and ♦A never accepts the empty trace.
    ev = S.eventually(a)
    dfa_ev = compile_dfa(ev, alphabet)
    assert not dfa_ev.accepts_word([])
    unfolding = S.or_(S.and_(a, S.guard(smt.TRUE)), S.next_(ev))
    # On non-empty traces ♦A and its unfolding agree; conjoin with "at least
    # one event" (⟨⊤⟩) to ignore the empty trace.
    lhs = S.and_(ev, S.guard(smt.TRUE))
    rhs = S.and_(unfolding, S.guard(smt.TRUE))
    assert compile_dfa(lhs, alphabet).equivalent(compile_dfa(rhs, alphabet))
