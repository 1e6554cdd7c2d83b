"""End-to-end tests for the lazy SMT solver facade."""

from repro import smt
from repro.smt import sorts
from repro.smt.solver import Solver

BYTES = sorts.BYTES
PATH = sorts.PATH

isDir = smt.declare("isDir_s", [BYTES], smt.BOOL, method_predicate=True)
isDel = smt.declare("isDel_s", [BYTES], smt.BOOL, method_predicate=True)
isFile = smt.declare("isFile_s", [BYTES], smt.BOOL, method_predicate=True)
parent = smt.declare("parent_s", [PATH], PATH)

v = smt.var("s_v", BYTES)
w = smt.var("s_w", BYTES)
p = smt.var("s_p", PATH)
q = smt.var("s_q", PATH)
x = smt.var("s_x", smt.INT)
y = smt.var("s_y", smt.INT)


def dir_not_del_axiom():
    b = smt.var("s_ax_b", BYTES)
    return smt.axiom("dir-not-del", [b], smt.implies(smt.apply(isDir, b), smt.not_(smt.apply(isDel, b))))


def dir_not_file_axiom():
    b = smt.var("s_ax_b", BYTES)
    return smt.axiom("dir-not-file", [b], smt.implies(smt.apply(isDir, b), smt.not_(smt.apply(isFile, b))))


def test_propositional_sat_unsat():
    solver = Solver()
    a = smt.var("s_a", smt.BOOL)
    b = smt.var("s_b", smt.BOOL)
    assert solver.is_satisfiable(smt.or_(a, b))
    assert not solver.is_satisfiable(smt.and_(a, smt.not_(a)))
    assert solver.is_valid(smt.or_(a, smt.not_(a)))
    assert not solver.is_valid(a)


def test_euf_reasoning_through_boolean_structure():
    solver = Solver()
    phi = smt.and_(
        smt.eq(v, w),
        smt.apply(isDir, v),
        smt.not_(smt.apply(isDir, w)),
    )
    assert not solver.is_satisfiable(phi)


def test_arith_reasoning_through_boolean_structure():
    solver = Solver()
    phi = smt.and_(
        smt.lt(x, y),
        smt.or_(smt.lt(y, x), smt.eq(x, y)),
    )
    assert not solver.is_satisfiable(phi)
    phi_sat = smt.and_(smt.lt(x, y), smt.or_(smt.lt(y, x), smt.lt(x, smt.int_const(10))))
    assert solver.is_satisfiable(phi_sat)


def test_method_predicate_axioms_are_instantiated():
    solver = Solver(axioms=[dir_not_del_axiom()])
    phi = smt.and_(smt.apply(isDir, v), smt.apply(isDel, v))
    assert not solver.is_satisfiable(phi)
    # without the axiom the same conjunction is satisfiable
    assert Solver().is_satisfiable(phi)


def test_axioms_fire_on_terms_introduced_by_functions():
    solver = Solver(axioms=[dir_not_del_axiom()])
    stored = smt.declare("stored_s", [PATH], BYTES)
    phi = smt.and_(
        smt.apply(isDir, smt.apply(stored, smt.apply(parent, p))),
        smt.apply(isDel, smt.apply(stored, smt.apply(parent, p))),
    )
    assert not solver.is_satisfiable(phi)


def test_implication_interface():
    solver = Solver(axioms=[dir_not_del_axiom(), dir_not_file_axiom()])
    hyps = [smt.apply(isDir, v)]
    assert solver.implies(hyps, smt.not_(smt.apply(isDel, v)))
    assert solver.implies(hyps, smt.not_(smt.apply(isFile, v)))
    assert not solver.implies(hyps, smt.apply(isFile, v))


def test_validity_with_hypotheses_and_equalities():
    solver = Solver()
    hyps = [smt.eq(p, q)]
    goal = smt.eq(smt.apply(parent, p), smt.apply(parent, q))
    assert solver.is_valid(goal, hypotheses=hyps)
    assert not solver.is_valid(goal)


def test_mixed_theory_query():
    solver = Solver()
    size = smt.declare("size_s", [BYTES], smt.INT)
    phi = smt.and_(
        smt.eq(v, w),
        smt.lt(smt.apply(size, v), smt.apply(size, w)),
    )
    assert not solver.is_satisfiable(phi)


def test_stats_are_recorded():
    solver = Solver()
    before = solver.stats.queries
    solver.is_satisfiable(smt.TRUE)
    solver.is_valid(smt.TRUE)
    assert solver.stats.queries == before + 2
    assert solver.stats.time_seconds >= 0.0
