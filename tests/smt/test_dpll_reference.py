"""Decision-level differential: the DPLL core against its reference search.

``ReferenceDpllSolver`` (``sat_oracle.py``) is the DPLL core's search before
its literal-indexed truth list, inline propagation and branch cursor.  Those
change how many interpreter steps a solve takes, never what it decides, so
after every ``solve_partial`` the two must agree on:

* the partial model, key order included;
* ``stats_decisions``, ``stats_conflicts`` and ``stats_propagations``;
* the watch state (``_watched``, ``_watches``) carried into the next call.

Both keep their root (level 0 and one level per assumption) across solves,
so the comparison covers retention too.  Three legs check it.  The fuzz leg
drives both through seeded random incremental sequences
(``REPRO_FUZZ_SEED``; CI runs two pinned values); the prefix leg does the
same with solves that share assumption prefixes, with clauses added on a
retained root in between; the corpus leg runs a cold fast-corpus evaluation
on a twin core that solves every query on both and compares them.
"""

import os
import random

import pytest

from repro.evaluation.runner import run_evaluation
from repro.smt import solver as solver_module
from repro.smt.backends import SatSolver
from sat_oracle import ReferenceDpllSolver

#: Base seed of the fuzz leg; CI exports it so failures reproduce.
SEED = int(os.environ.get("REPRO_FUZZ_SEED", "271828"))


def _assert_same_search(core, reference, got, expected, context) -> None:
    assert got == expected, f"models differ ({context})"
    if got is not None:
        assert list(got) == list(expected), f"model key order differs ({context})"
    for counter in ("stats_decisions", "stats_conflicts", "stats_propagations"):
        assert getattr(core, counter) == getattr(reference, counter), (
            f"{counter} differs ({context})"
        )
    assert core._watched == reference._watched, f"watched pairs differ ({context})"
    assert core._watches == reference._watches, f"watch lists differ ({context})"


# ---------------------------------------------------------------------------
# Fuzz leg: random incremental clause/solve sequences
# ---------------------------------------------------------------------------


def _random_clause(rng: random.Random, num_vars: int) -> tuple[int, ...]:
    roll = rng.random()
    if roll < 0.01:
        return ()
    size = 1 if roll < 0.12 else rng.randint(2, 5)
    clause = [rng.choice((1, -1)) * rng.randint(1, num_vars) for _ in range(size)]
    if rng.random() < 0.1:
        clause.insert(rng.randrange(len(clause) + 1), rng.choice(clause))  # duplicate
    if rng.random() < 0.1:
        clause.insert(rng.randrange(len(clause) + 1), -rng.choice(clause))  # tautology
    return tuple(clause)


def _random_sequence(case: int):
    """The seeded op list of one fuzz case: clause, vars and solve steps."""
    rng = random.Random(SEED + 9_000_011 * case)
    num_vars = rng.randint(2, 12)
    ops = []
    for _ in range(rng.randint(10, 60)):
        roll = rng.random()
        if roll < 0.65:
            ops.append(("clause", _random_clause(rng, num_vars)))
        elif roll < 0.7:
            num_vars += rng.randint(0, 2)
            ops.append(("vars", num_vars))
        else:
            # variables up to num_vars + 2: assumptions and priorities may
            # name variables no clause mentions yet
            span = num_vars + 2
            assumptions = tuple(
                rng.choice((1, -1)) * rng.randint(1, span)
                for _ in range(rng.randint(0, 3))
            )
            priority = tuple(rng.sample(range(1, span + 1), rng.randint(0, min(4, span))))
            hint = {v: rng.random() < 0.5 for v in range(1, span + 1) if rng.random() < 0.4}
            ops.append(("solve", assumptions, priority, hint))
    return ops


def _run(solver, op):
    """Apply one op; a solve returns its partial model (or ``None``)."""
    if op[0] == "clause":
        solver.add_clause(op[1])
    elif op[0] == "vars":
        solver.ensure_vars(op[1])
    else:
        _, assumptions, solver.priority_vars, solver.phase_hint = op
        return solver.solve_partial(assumptions)


@pytest.mark.parametrize("case", range(150))
def test_random_sequences_make_the_same_decisions(case):
    core, reference = SatSolver(), ReferenceDpllSolver()
    for step, op in enumerate(_random_sequence(case)):
        expected = _run(reference, op)
        got = _run(core, op)
        if op[0] == "solve":
            _assert_same_search(
                core, reference, got, expected,
                f"seed base {SEED}, case {case}, step {step}",
            )


def _prefix_sequence(case: int):
    """Solves whose assumptions extend a prefix of the previous solve's.

    The core retains the root levels two solves share, and clauses added in
    between may be unit, false or watched on retained literals; these
    sequences make that the common case rather than a chance one.
    """
    rng = random.Random(SEED + 7_000_003 * case)
    num_vars = rng.randint(3, 14)
    assumptions: list[int] = []
    ops = []
    for _ in range(rng.randint(20, 80)):
        if rng.random() < 0.45:
            ops.append(("clause", _random_clause(rng, num_vars)))
            continue
        del assumptions[rng.randint(0, len(assumptions)):]
        for _ in range(rng.randint(0, 3)):
            assumptions.append(rng.choice((1, -1)) * rng.randint(1, num_vars + 2))
        priority = tuple(rng.sample(range(1, num_vars + 1), rng.randint(0, min(4, num_vars))))
        hint = {v: rng.random() < 0.5 for v in range(1, num_vars + 1) if rng.random() < 0.4}
        ops.append(("solve", tuple(assumptions), priority, hint))
    return ops


@pytest.mark.parametrize("case", range(150))
def test_shared_assumption_prefixes_make_the_same_decisions(case):
    core, reference = SatSolver(), ReferenceDpllSolver()
    for step, op in enumerate(_prefix_sequence(case)):
        expected = _run(reference, op)
        got = _run(core, op)
        if op[0] == "solve":
            _assert_same_search(
                core, reference, got, expected,
                f"seed base {SEED}, prefix case {case}, step {step}",
            )


def test_the_prefix_leg_keeps_and_cuts_the_root():
    # the retained root must be both reused and cut back, or the prefix leg
    # would not exercise retention
    reused = cut = 0
    for case in range(150):
        core = SatSolver()
        for op in _prefix_sequence(case):
            kept = len(core._roots)
            _run(core, op)
            if op[0] == "clause" and kept:
                cut += len(core._roots) < kept
            elif op[0] == "solve" and kept > 1:
                reused += 1
    assert reused > 500 and cut > 50, (reused, cut)


def test_the_fuzz_leg_reaches_conflicts_and_both_verdicts():
    # the sequences above must exercise backtracking and both outcomes, or
    # the equality they check would be vacuous
    conflicts = sat = unsat = 0
    for case in range(150):
        core = SatSolver()
        for op in _random_sequence(case):
            model = _run(core, op)
            if op[0] == "solve":
                sat += model is not None
                unsat += model is None
        conflicts += core.stats_conflicts
    assert conflicts > 0 and sat > 0 and unsat > 0, (conflicts, sat, unsat)


# ---------------------------------------------------------------------------
# Corpus leg: every solve of a cold fast-corpus run
# ---------------------------------------------------------------------------


class _TwinCore(SatSolver):
    """The production core that re-solves every query on the reference."""

    solves = 0

    def __init__(self) -> None:
        super().__init__()
        self.reference = ReferenceDpllSolver()

    def add_clause(self, clause) -> None:
        clause = tuple(clause)
        super().add_clause(clause)
        self.reference.add_clause(clause)

    def ensure_vars(self, num_vars: int) -> None:
        super().ensure_vars(num_vars)
        self.reference.ensure_vars(num_vars)

    def solve_partial(self, assumptions=()):
        assumptions = tuple(assumptions)
        reference = self.reference
        reference.priority_vars = self.priority_vars
        reference.phase_hint = self.phase_hint
        expected = reference.solve_partial(assumptions)
        got = super().solve_partial(assumptions)
        _TwinCore.solves += 1
        _assert_same_search(
            self, reference, got, expected, f"corpus solve {_TwinCore.solves}"
        )
        return got


def test_fast_corpus_solves_match_the_reference(monkeypatch):
    monkeypatch.setattr(solver_module, "SatSolver", _TwinCore)
    monkeypatch.setattr(_TwinCore, "solves", 0)
    report = run_evaluation(include_slow=False)
    assert report.all_verified and report.all_negatives_rejected
    assert _TwinCore.solves >= 1_000, f"only {_TwinCore.solves} solves reached the twin"
