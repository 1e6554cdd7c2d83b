"""Seeded random-formula fuzzing across solver backends.

Three adversarial generators, all driven by ``REPRO_FUZZ_SEED`` (CI pins it,
so a red job reproduces locally with the same environment variable):

* **CNF + EUF + arith mixes** — ≥300 random boolean combinations of
  uninterpreted-predicate, congruence and linear-arithmetic atoms; every
  backend must return the same satisfiability verdict on each;
* **model enumeration** — random literal sets under random base formulas;
  the enumerated assignment *sets* must coincide across backends (the
  canonical ordering makes that a list equality), and every assignment must
  replay consistently through :func:`repro.smt.theory.check_theory` — a model
  a backend hands back is only correct if the theory combination agrees;
* **SFA inclusion** — ≥60 random symbolic-automata pairs; verdicts and
  counterexample traces must agree backend for backend (the alphabet
  transformation consumes enumeration results, so this exercises the whole
  seam end to end).
"""

import os
import random

import pytest

from repro import smt
from repro.sfa import symbolic as S
from repro.sfa.inclusion import InclusionChecker
from repro.sfa.signatures import OperatorRegistry
from repro.smt import sorts
from repro.smt.backends import known_backends
from repro.smt.theory import check_theory

#: Base seed for every generator below; CI exports it so failures reproduce.
SEED = int(os.environ.get("REPRO_FUZZ_SEED", "271828"))

#: every registered backend is fuzzed — adding one to the registry enrolls
#: it here automatically
BACKENDS = known_backends()

# ---------------------------------------------------------------------------
# A mixed CNF + EUF + arithmetic atom pool
# ---------------------------------------------------------------------------

_P = smt.declare("fz_p", [sorts.ELEM], smt.BOOL)
_Q = smt.declare("fz_q", [sorts.ELEM, sorts.ELEM], smt.BOOL)
_F = smt.declare("fz_f", [sorts.ELEM], smt.INT)
_G = smt.declare("fz_g", [smt.INT], smt.INT)

_E = [smt.var(f"fz_e{i}", sorts.ELEM) for i in range(3)]
_N = [smt.var(f"fz_n{i}", smt.INT) for i in range(3)]
_B = [smt.var(f"fz_b{i}", smt.BOOL) for i in range(3)]


def _atom_pool() -> list[smt.Term]:
    e0, e1, e2 = _E
    n0, n1, n2 = _N
    return [
        *_B,
        smt.apply(_P, e0),
        smt.apply(_P, e1),
        smt.apply(_Q, e0, e1),
        smt.apply(_Q, e1, e2),
        smt.eq(e0, e1),
        smt.eq(e1, e2),
        smt.lt(n0, n1),
        smt.lt(n1, n2),
        smt.le(n2, n0),
        smt.eq(n0, smt.add(n1, smt.int_const(1))),
        smt.le(n1, smt.int_const(3)),
        # congruence feeding arithmetic (the Nelson–Oppen propagation path)
        smt.lt(smt.apply(_F, e0), n0),
        smt.eq(smt.apply(_F, e0), smt.apply(_F, e1)),
        smt.le(smt.apply(_G, n0), smt.int_const(5)),
    ]


def _random_formula(rng: random.Random, depth: int = 3) -> smt.Term:
    pool = _atom_pool()
    if depth == 0 or rng.random() < 0.35:
        atom = rng.choice(pool)
        return smt.not_(atom) if rng.random() < 0.3 else atom
    combinator = rng.randrange(5)
    left = _random_formula(rng, depth - 1)
    right = _random_formula(rng, depth - 1)
    if combinator == 0:
        return smt.and_(left, right)
    if combinator == 1:
        return smt.or_(left, right)
    if combinator == 2:
        return smt.not_(left)
    if combinator == 3:
        return smt.implies(left, right)
    return smt.iff(left, right)


# ---------------------------------------------------------------------------
# ≥300 satisfiability verdicts agree
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("case", range(320))
def test_random_mixes_agree_on_satisfiability(case):
    rng = random.Random(SEED + 1_000_003 * case)
    formula = _random_formula(rng, depth=4)
    verdicts = {
        backend: smt.Solver(backend=backend).is_satisfiable(formula)
        for backend in BACKENDS
    }
    assert len(set(verdicts.values())) == 1, (
        f"backends disagree on seed base {SEED}, case {case}: {verdicts}"
    )


# ---------------------------------------------------------------------------
# Model enumeration: identical sets, every model theory-consistent
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("case", range(90))
def test_random_enumerations_agree_and_replay(case):
    rng = random.Random(SEED + 7_000_003 * case)
    base = _random_formula(rng, depth=3)
    pool = [atom for atom in _atom_pool() if smt.is_atom(atom)]
    literals = rng.sample(pool, rng.randint(2, 4))
    results = {}
    for backend in BACKENDS:
        solver = smt.Solver(backend=backend)
        results[backend] = solver.enumerate_models(literals, base=base)
    reference = results["dpll"]
    for backend, models in results.items():
        assert models == reference, (
            f"{backend} enumerated a different set on seed base {SEED}, "
            f"case {case}"
        )
    # every minterm a backend reports must be a theory-consistent conjunction
    for assignment in reference:
        replay = check_theory(list(assignment))
        assert replay.consistent, (
            f"enumerated assignment fails theory replay (seed base {SEED}, "
            f"case {case}): {assignment}"
        )


# ---------------------------------------------------------------------------
# ≥60 random SFA-inclusion pairs agree (verdict + witness trace)
# ---------------------------------------------------------------------------

_SFA_PREDS = [
    smt.declare(f"fz_sp{i}", [sorts.ELEM], smt.BOOL, method_predicate=True)
    for i in range(2)
]


def _random_registry(rng: random.Random) -> OperatorRegistry:
    registry = OperatorRegistry()
    registry.declare("fz_op_a", [("x", sorts.ELEM)], sorts.UNIT)
    if rng.random() < 0.5:
        registry.declare("fz_op_b", [("y", sorts.ELEM), ("m", smt.INT)], smt.BOOL)
    return registry


def _random_event_literal(rng: random.Random, signature) -> smt.Term:
    formals = [f for f in signature.formals if f.sort in (smt.INT, sorts.ELEM)]
    if not formals:
        return smt.TRUE
    formal = rng.choice(formals)
    if formal.sort == smt.INT:
        if rng.random() < 0.5:
            return smt.lt(formal, rng.choice(_N))
        return smt.le(rng.choice(_N), formal)
    if rng.random() < 0.5:
        return smt.apply(rng.choice(_SFA_PREDS), formal)
    return smt.eq(formal, rng.choice(_E))


def _random_sfa(rng: random.Random, registry, depth: int = 3) -> S.Sfa:
    if depth == 0 or rng.random() < 0.3:
        choice = rng.randrange(4)
        if choice == 0:
            return S.TOP
        if choice == 1:
            signature = rng.choice(list(registry))
            return S.event(signature, _random_event_literal(rng, signature))
        if choice == 2:
            return S.guard(smt.apply(rng.choice(_SFA_PREDS), rng.choice(_E)))
        return S.event(rng.choice(list(registry)), smt.TRUE)
    combinator = rng.randrange(5)
    left = _random_sfa(rng, registry, depth - 1)
    right = _random_sfa(rng, registry, depth - 1)
    if combinator == 0:
        return S.and_(left, right)
    if combinator == 1:
        return S.or_(left, right)
    if combinator == 2:
        return S.not_(left)
    if combinator == 3:
        return S.next_(left)
    return S.concat(left, right)


@pytest.mark.parametrize("case", range(64))
def test_random_inclusions_agree(case):
    rng = random.Random(SEED + 13_000_027 * case)
    registry = _random_registry(rng)
    lhs = _random_sfa(rng, registry)
    rhs = _random_sfa(rng, registry)
    hypotheses = []
    if rng.random() < 0.3:
        hypothesis = smt.apply(rng.choice(_SFA_PREDS), rng.choice(_E))
        hypotheses.append(hypothesis)

    results = {}
    for backend in BACKENDS:
        checker = InclusionChecker(smt.Solver(backend=backend), registry)
        results[backend] = checker.check_detailed(hypotheses, lhs, rhs)
    reference = results["dpll"]
    for backend, result in results.items():
        assert result.included == reference.included, (
            f"{backend} verdict differs (seed base {SEED}, case {case})"
        )
        assert result.counterexample == reference.counterexample, (
            f"{backend} witness differs (seed base {SEED}, case {case})"
        )
