"""The explaining congruence closure against the coarse verdict oracle.

``repro.smt.euf.check_euf`` explains a conflict by the input literals on the
proof path of its first clash.  Every leg below holds it to three rules:

* its verdict equals the oracle's (``euf_oracle.oracle_check_euf``, the
  rescanning closure that blames the whole input);
* a conflict is a subset of the input, listed in input order;
* a conflict is inconsistent on its own, by the oracle's judgement.

The fuzz leg draws conjunctions over a small signature (``REPRO_FUZZ_SEED``;
CI runs two pinned values); the corpus leg replays every ``check_euf`` call
of a cold fast-corpus evaluation.
"""

import os
import random

import pytest

from repro import smt
from repro.evaluation.runner import run_evaluation
from repro.smt import euf, sorts
from repro.smt.euf import check_euf
from euf_oracle import oracle_check_euf

#: Base seed of the fuzz leg; CI exports it so failures reproduce.
SEED = int(os.environ.get("REPRO_FUZZ_SEED", "271828"))

ELEM = sorts.ELEM
f = smt.declare("eufx_f", [ELEM], ELEM)
g = smt.declare("eufx_g", [ELEM, ELEM], ELEM)
size = smt.declare("eufx_size", [ELEM], smt.INT)
p = smt.declare("eufx_p", [ELEM], smt.BOOL, method_predicate=True)

ELEM_LEAVES = [
    smt.var("eufx_x", ELEM),
    smt.var("eufx_y", ELEM),
    smt.var("eufx_z", ELEM),
    smt.data_const("eufx_a", ELEM),
    smt.data_const("eufx_b", ELEM),
]
INT_LEAVES = [smt.var("eufx_i", smt.INT), smt.int_const(0), smt.int_const(1)]
BOOL_VARS = [smt.var("eufx_q", smt.BOOL)]


def _elem(rng: random.Random, depth: int):
    roll = rng.random()
    if depth == 0 or roll < 0.6:
        return rng.choice(ELEM_LEAVES)
    if roll < 0.9:
        return smt.apply(f, _elem(rng, depth - 1))
    return smt.apply(g, _elem(rng, depth - 1), _elem(rng, depth - 1))


def _int(rng: random.Random, depth: int):
    if rng.random() < 0.5:
        return rng.choice(INT_LEAVES)
    return smt.apply(size, _elem(rng, depth))


def _atom(rng: random.Random):
    roll = rng.random()
    if roll < 0.55:
        return smt.eq(_elem(rng, 1), _elem(rng, 2))
    if roll < 0.7:
        return smt.eq(_int(rng, 1), _int(rng, 1))
    if roll < 0.95:
        return smt.apply(p, _elem(rng, 1))
    return rng.choice(BOOL_VARS)


def _conjunction(rng: random.Random) -> list:
    literals = []
    seen = set()
    length = rng.randint(2, 12)
    while len(literals) < length:
        atom = _atom(rng)
        if atom.is_true or atom.is_false or atom in seen:
            continue  # folded to a constant, or drawn already
        seen.add(atom)
        literals.append((atom, rng.random() < 0.7))
    return literals


def _assert_explains(literals: list, result, oracle) -> None:
    assert result.consistent == oracle.consistent, literals
    if result.consistent:
        assert result.conflict == []
        return
    positions = [literals.index(literal) for literal in result.conflict]
    assert positions == sorted(set(positions)), "conflict not in input order"
    assert not oracle_check_euf(result.conflict).consistent, result.conflict


def test_fuzzed_conjunctions_match_the_oracle():
    rng = random.Random(SEED)
    conflicts = 0
    shorter = 0
    for _ in range(2_000):
        literals = _conjunction(rng)
        result = check_euf(literals)
        _assert_explains(literals, result, oracle_check_euf(literals))
        if not result.consistent:
            conflicts += 1
            shorter += len(result.conflict) < len(literals)
    assert conflicts >= 150, f"only {conflicts} conflicts drawn"
    assert shorter >= conflicts // 2, "explanations are not finer than the input"


def test_fast_corpus_checks_match_the_oracle(monkeypatch):
    calls = []
    explain = euf.check_euf

    def recording(literals, closure=None):
        literals = list(literals)
        result = explain(literals, closure)
        calls.append((literals, result))
        return result

    monkeypatch.setattr(euf, "check_euf", recording)
    report = run_evaluation(include_slow=False)
    assert report.all_verified and report.all_negatives_rejected
    assert len(calls) >= 1_000, f"only {len(calls)} checks reached the closure"
    conflicts = 0
    for literals, result in calls:
        _assert_explains(literals, result, oracle_check_euf(literals))
        conflicts += not result.consistent
    assert conflicts >= 100, f"only {conflicts} conflicts in the corpus"


x, y, z = ELEM_LEAVES[:3]
a, b = ELEM_LEAVES[3:]


def F(term):
    return smt.apply(f, term)


def P(term):
    return smt.apply(p, term)


@pytest.mark.parametrize(
    "literals, expected",
    [
        # a disequality merged by a chain: the unrelated equation stays out
        (
            [(smt.eq(x, y), True), (smt.eq(a, F(z)), True), (smt.eq(y, z), True),
             (smt.eq(x, z), False)],
            [0, 2, 3],
        ),
        # congruence: F(x) = F(y) needs only x = y
        (
            [(smt.eq(z, a), True), (smt.eq(x, y), True),
             (smt.eq(F(x), F(y)), False)],
            [1, 2],
        ),
        # a predicate with both polarities on congruent arguments (true = false)
        (
            [(P(x), True), (smt.eq(z, b), True), (P(y), False), (smt.eq(x, y), True)],
            [0, 2, 3],
        ),
        # two distinct constants in one class
        ([(smt.eq(a, x), True), (smt.eq(y, z), True), (smt.eq(x, b), True)], [0, 2]),
        # nested congruence: F(F(x)) = F(F(a)) through a chain under two F's
        (
            [(smt.eq(x, y), True), (smt.eq(z, a), True), (P(a), True),
             (smt.eq(y, z), True), (smt.eq(F(F(x)), b), True),
             (smt.eq(F(F(a)), b), False)],
            [0, 1, 3, 4, 5],
        ),
    ],
)
def test_conflict_is_the_explanation_path(literals, expected):
    result = check_euf(literals)
    assert not result.consistent
    assert result.conflict == [literals[index] for index in expected]

