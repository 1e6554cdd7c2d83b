"""Unit tests for checker building blocks (value encoding, pure op typing, matches)."""

import pytest

from repro import smt
from repro.smt.sorts import BOOL, ELEM, INT, UNIT
from repro.lang import ast
from repro.lang.desugar import desugar_program
from repro.libraries import make_set
from repro.sfa import symbolic as S
from repro.typecheck import Checker, MethodSpec, invariant_method
from repro.types import TypingContext, TypingError, base, singleton


def make_checker():
    library = make_set(ELEM)
    return library, Checker(
        operators=library.operators,
        delta=library.delta,
        pure_ops=library.pure_ops,
        axioms=library.axioms,
        constants={"seed": smt.data_const("seed", ELEM)},
    )


def test_value_term_encodings():
    _, checker = make_checker()
    gamma = TypingContext().bind("x", base(ELEM)).bind("n", base(INT))
    assert checker.value_term(gamma, ast.Var("x")) is smt.var("x", ELEM)
    assert checker.value_term(gamma, ast.Const(3)).value == 3
    assert checker.value_term(gamma, ast.TRUE) is smt.TRUE
    assert checker.value_term(gamma, ast.Const(())).sort is UNIT
    assert checker.value_term(gamma, ast.Const("seed")) is smt.data_const("seed", ELEM)
    assert checker.value_term(gamma, ast.Const("other"), ELEM).sort is ELEM
    with pytest.raises(TypingError):
        checker.value_term(gamma, ast.Const("mystery"))
    with pytest.raises(TypingError):
        checker.value_term(gamma, ast.Var("unbound"))


def test_pure_result_types():
    _, checker = make_checker()
    gamma = TypingContext().bind("a", base(INT)).bind("b", base(INT)).bind("p", base(BOOL))
    eq_type = checker.pure_result_type(gamma, "==", [ast.Var("a"), ast.Var("b")])
    assert eq_type.sort is BOOL
    lt_type = checker.pure_result_type(gamma, "<", [ast.Var("a"), ast.Const(3)])
    assert lt_type.sort is BOOL
    add_type = checker.pure_result_type(gamma, "+", [ast.Var("a"), ast.Const(1)])
    assert add_type.sort is INT
    not_type = checker.pure_result_type(gamma, "not", [ast.Var("p")])
    assert not_type.sort is BOOL
    and_type = checker.pure_result_type(gamma, "&&", [ast.Var("p"), ast.TRUE])
    assert and_type.sort is BOOL
    with pytest.raises(TypingError):
        checker.pure_result_type(gamma, "unknown_pure", [ast.Var("a")])


def test_infeasible_branches_are_pruned():
    library, checker = make_checker()
    el = smt.var("el", ELEM)
    insert_el = S.event_pinned(library.operators["insert"], {"x": el})
    invariant = S.globally(
        S.implies(insert_el, S.next_(S.not_(S.eventually(insert_el))))
    )
    # This implementation would be wrong if the `true` branch were reachable,
    # but the guard `x <> x` makes it dead; the checker must prune it.
    source = """
    let weird (x : Elem.t) : unit =
      if x <> x then insert x else ()
    """
    program = desugar_program(source, effectful_ops=library.effectful_op_names())
    spec = invariant_method("weird", (("el", ELEM),), [("x", base(ELEM))], invariant, base(UNIT))
    result = checker.check_method(program["weird"], spec)
    assert result.verified, result.error


def test_resource_errors_during_walk_are_reported_not_raised(monkeypatch):
    """Deferred discharge keeps walking past failing obligations, so inline
    queries may hit resource limits on contexts the inline design never
    reached; they must surface as a failed result, not an exception."""
    from repro.sfa.alphabet import AlphabetError
    from repro.types.subtyping import SubtypingEngine

    library, checker = make_checker()

    def blow_up(self, *args, **kwargs):
        raise AlphabetError("literal budget exceeded")

    monkeypatch.setattr(SubtypingEngine, "value_has_type", blow_up)
    source = "let touch (x : Elem.t) : unit = insert x"
    program = desugar_program(source, effectful_ops=library.effectful_op_names())
    spec = invariant_method("touch", (), [("x", base(ELEM))], S.any_trace(), base(UNIT))
    result = checker.check_method(program["touch"], spec)
    assert not result.verified
    assert "resource limit" in (result.error or "")


def test_missing_operator_signature_is_reported():
    library, checker = make_checker()
    source = "let poke (x : Elem.t) : unit = unknown_effect x"
    program = desugar_program(source, effectful_ops={"unknown_effect"})
    spec = invariant_method("poke", (), [("x", base(ELEM))], S.any_trace(), base(UNIT))
    result = checker.check_method(program["poke"], spec)
    assert not result.verified
    assert "unknown_effect" in (result.error or "")


def test_arity_mismatch_is_reported():
    library, checker = make_checker()
    source = "let oops (x : Elem.t) : unit = insert x x"
    program = desugar_program(source, effectful_ops=library.effectful_op_names())
    spec = invariant_method("oops", (), [("x", base(ELEM))], S.any_trace(), base(UNIT))
    result = checker.check_method(program["oops"], spec)
    assert not result.verified
    assert "argument" in (result.error or "") or "expects" in (result.error or "")


def test_result_refinement_violation_is_reported():
    library, checker = make_checker()
    from repro.types.rtypes import RefinementType, nu

    source = "let yes (u : unit) : bool = false"
    program = desugar_program(source, effectful_ops=library.effectful_op_names())
    must_be_true = RefinementType(BOOL, smt.eq(nu(BOOL), smt.TRUE))
    spec = MethodSpec(
        name="yes",
        ghosts=(),
        params=(("u", base(UNIT)),),
        precondition=S.any_trace(),
        result=must_be_true,
        postcondition=S.any_trace(),
    )
    result = checker.check_method(program["yes"], spec)
    assert not result.verified
    assert "result type" in (result.error or "")


def test_stats_are_collected_per_method():
    library, checker = make_checker()
    el = smt.var("el", ELEM)
    insert_el = S.event_pinned(library.operators["insert"], {"x": el})
    invariant = S.globally(S.implies(insert_el, S.next_(S.not_(S.eventually(insert_el)))))
    source = """
    let guarded_insert (x : Elem.t) : unit =
      if mem x then () else insert x
    """
    program = desugar_program(source, effectful_ops=library.effectful_op_names())
    spec = invariant_method(
        "guarded_insert", (("el", ELEM),), [("x", base(ELEM))], invariant, base(UNIT)
    )
    from repro.typecheck.checker import CheckerConfig

    worker = Checker(
        operators=library.operators,
        delta=library.delta,
        pure_ops=library.pure_ops,
        axioms=library.axioms,
        config=CheckerConfig(),
    )
    result = worker.check_method(program["guarded_insert"], spec)
    assert result.verified
    row = result.stats.as_row()
    assert row["#Branch"] == 2
    assert row["#App"] >= 2
    assert row["#Obl"] > 0
    assert row["#SAT"] > 0
    assert row["#Inc"] > 0
    # the walk reports explored product states and the automaton share
    # each walk reached (avg. s_FA)
    assert row["#Prod"] > 0
    assert row["avg. sFA"] > 0
