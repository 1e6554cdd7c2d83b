"""The backtrackable congruence closure against the coarse verdict oracle.

``check_euf(literals, closure)`` reuses a closure an earlier check left
behind: it pops back to the prefix the two conjunctions share and asserts
the rest.  A seeded walk (``REPRO_FUZZ_SEED``; CI runs two pinned values)
drives one closure through extensions, truncations and flipped literals —
the shapes consecutive checks on one SAT trail take — and after every check
holds it to these rules:

* its verdict equals the oracle's (``euf_oracle.oracle_check_euf``);
* a conflict is a subset of the input, in input order, and inconsistent on
  its own by the oracle's judgement;
* the closure holds a prefix of the input, and its partition equals the one
  a fresh closure reaches from the same registered terms and that prefix.
"""

import os
import random

from repro.smt.euf import CongruenceClosure, _euf_terms, check_euf
from euf_oracle import oracle_check_euf
from test_euf_explain import _assert_explains, _atom

#: Base seed of the walk; CI exports it so failures reproduce.
SEED = int(os.environ.get("REPRO_FUZZ_SEED", "271828"))


def _fresh_literal(rng: random.Random, taken: list) -> tuple:
    atoms = {atom for atom, _ in taken}
    while True:
        atom = _atom(rng)
        if not (atom.is_true or atom.is_false or atom in atoms):
            return atom, rng.random() < 0.7


def _partition(closure: CongruenceClosure) -> set[frozenset]:
    return {frozenset(members) for members in closure.classes().values()}


def _replayed(closure: CongruenceClosure) -> CongruenceClosure:
    """A fresh closure with the same terms and the same asserted prefix."""
    fresh = CongruenceClosure()
    for term in closure._terms:
        fresh.register(term)
    check_euf(closure.literals, fresh)
    return fresh


def test_a_reused_closure_matches_the_oracle_after_every_check():
    rng = random.Random(SEED + 17)
    checks = conflicts = reused = 0
    for _ in range(150):
        closure = CongruenceClosure()
        literals: list = []
        for _ in range(rng.randint(5, 25)):
            roll = rng.random()
            if literals and roll < 0.35:
                del literals[rng.randrange(len(literals) + 1):]  # backtrack
            elif literals and roll < 0.55:
                index = rng.randrange(len(literals))  # flip one literal
                atom, value = literals[index]
                del literals[index + 1:]
                literals[index] = (atom, not value)
            for _ in range(rng.randint(0, 4)):
                literals.append(_fresh_literal(rng, literals))
            before = len(closure._terms)
            result = check_euf(list(literals), closure)
            checks += 1
            conflicts += not result.consistent
            reused += len(closure._terms) == before and bool(closure.literals)
            _assert_explains(literals, result, oracle_check_euf(literals))
            assert closure.literals == literals[: len(closure.literals)]
            if result.consistent:
                assert len(closure.literals) == len(literals)
            assert _partition(closure) == _partition(_replayed(closure))
    assert checks >= 1_000 and conflicts >= 100 and reused >= 200, (checks, conflicts, reused)


def test_pop_restores_every_checkpoint():
    rng = random.Random(SEED + 29)
    for _ in range(100):
        literals = [_fresh_literal(rng, []) for _ in range(12)]
        literals = list(dict(literals).items())  # one polarity per atom
        closure = CongruenceClosure()
        for atom, _ in literals:
            for term in _euf_terms(atom):
                closure.register(term)
        snapshots = []
        for index in range(len(literals)):
            snapshots.append((_partition(closure), closure.is_consistent()))
            check_euf(literals[: index + 1], closure)
        for depth in reversed(range(len(snapshots))):
            closure.pop(depth)
            if len(closure.literals) == depth:
                assert (_partition(closure), closure.is_consistent()) == snapshots[depth]
