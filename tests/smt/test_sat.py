"""Tests for the SAT cores, including a brute-force equivalence property.

Every test runs against both built-in backends (DPLL and CDCL) through the
:func:`repro.smt.backends.make_sat_backend` factory — the protocol surface,
not a concrete class — so a new backend is covered by adding its id here.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.smt.backends import known_backends, make_sat_backend
from repro.smt.backends.cdcl import CdclSolver, luby
from repro.smt.sat import SatSolver

#: a registered backend is covered here the moment it is registered
BACKENDS = known_backends()


@pytest.fixture(params=BACKENDS)
def backend(request):
    return request.param


def brute_force_satisfiable(clauses, num_vars):
    for bits in itertools.product([False, True], repeat=num_vars):
        assignment = {i + 1: bits[i] for i in range(num_vars)}
        if all(any(assignment[abs(l)] == (l > 0) for l in clause) for clause in clauses):
            return True
    return False


def check_model(clauses, model):
    return all(any(model[abs(l)] == (l > 0) for l in clause) for clause in clauses)


def test_sat_module_still_exports_the_dpll_core():
    assert make_sat_backend("dpll").__class__ is SatSolver


def test_empty_problem_is_sat(backend):
    solver = make_sat_backend(backend)
    assert solver.solve() == {}


def test_single_unit_clause(backend):
    solver = make_sat_backend(backend)
    solver.add_clause([1])
    model = solver.solve()
    assert model == {1: True}


def test_simple_unsat(backend):
    solver = make_sat_backend(backend)
    solver.add_clause([1])
    solver.add_clause([-1])
    assert solver.solve() is None


def test_requires_propagation_chain(backend):
    solver = make_sat_backend(backend)
    solver.add_clauses([[1], [-1, 2], [-2, 3], [-3, -4], [4, 5]])
    model = solver.solve()
    assert model is not None
    assert model[1] and model[2] and model[3] and not model[4] and model[5]


def test_unsat_pigeonhole_2_into_1(backend):
    # two pigeons, one hole: p1 in hole, p2 in hole, not both
    solver = make_sat_backend(backend)
    solver.add_clauses([[1], [2], [-1, -2]])
    assert solver.solve() is None


def test_assumptions(backend):
    solver = make_sat_backend(backend)
    solver.add_clause([1, 2])
    assert solver.solve(assumptions=[-1]) == {1: False, 2: True}
    assert solver.solve(assumptions=[-1, -2]) is None
    # assumptions do not persist
    assert solver.solve() is not None


def test_zero_literal_rejected(backend):
    solver = make_sat_backend(backend)
    with pytest.raises(ValueError):
        solver.add_clause([0])


def test_priority_vars_are_always_assigned(backend):
    solver = make_sat_backend(backend)
    solver.add_clause([1, 2])
    solver.ensure_vars(6)
    solver.priority_vars = (4, 5, 6)
    model = solver.solve_partial()
    assert model is not None
    assert all(var in model for var in (4, 5, 6))


@pytest.fixture(params=BACKENDS)
def hinting_backend(request):
    return request.param


def test_phase_hints_steer_free_variables(hinting_backend):
    solver = make_sat_backend(hinting_backend)
    solver.add_clause([1, 2])
    solver.ensure_vars(4)
    solver.priority_vars = (3, 4)
    solver.phase_hint = {3: False, 4: True}
    model = solver.solve_partial()
    assert model is not None
    assert model[3] is False and model[4] is True


clause_strategy = st.lists(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda v: st.sampled_from([v, -v])
    ),
    min_size=1,
    max_size=4,
)


@settings(max_examples=120, deadline=None)
@given(st.lists(clause_strategy, min_size=0, max_size=14))
def test_matches_brute_force(clauses):
    expected = brute_force_satisfiable(clauses, 6)
    for backend in BACKENDS:
        solver = make_sat_backend(backend)
        solver.add_clauses(clauses)
        solver.ensure_vars(6)
        model = solver.solve()
        if expected:
            assert model is not None, backend
            assert check_model(clauses, model), backend
        else:
            assert model is None, backend


# ---------------------------------------------------------------------------
# CDCL-specific contracts
# ---------------------------------------------------------------------------


def _pigeonhole(pigeons, holes):
    solver = CdclSolver()
    def var(p, h):
        return p * holes + h + 1
    for p in range(pigeons):
        solver.add_clause([var(p, h) for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                solver.add_clause([-var(p1, h), -var(p2, h)])
    return solver


def test_cdcl_learns_and_restarts_on_hard_unsat():
    solver = _pigeonhole(6, 5)
    external = solver.num_clauses
    assert solver.solve_partial() is None
    assert solver.stats_conflicts > 0
    assert solver.stats_learned_clauses > 0
    assert solver.stats_restarts > 0, "php(6,5) must cross the Luby budget"
    # learned clauses are internal: the external count is the lazy loop's
    # clause-sync cursor and must not move
    assert solver.num_clauses == external


def test_cdcl_learned_clauses_persist_across_solves():
    solver = _pigeonhole(5, 4)
    assert solver.solve_partial() is None
    learned = solver.stats_learned_clauses
    assert solver.solve_partial() is None
    # the re-solve rides on the learned clauses instead of re-deriving them
    assert solver.stats_learned_clauses - learned <= learned


def test_cdcl_incremental_blocking_clauses():
    solver = CdclSolver()
    solver.add_clauses([[1, 2], [2, 3]])
    solver.ensure_vars(3)
    solver.priority_vars = (1, 2, 3)
    seen = set()
    while True:
        model = solver.solve_partial()
        if model is None:
            break
        assignment = tuple(sorted(model.items()))
        assert assignment not in seen, "blocking must never repeat a model"
        seen.add(assignment)
        solver.add_clause([-v if value else v for v, value in model.items()])
    # all satisfying total assignments of (1|2) & (2|3) over 3 vars: 5
    assert len(seen) == 5


def test_luby_sequence_prefix():
    assert [luby(i) for i in range(1, 16)] == [
        1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
    ]
