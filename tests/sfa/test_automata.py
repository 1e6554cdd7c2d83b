"""Unit and property tests for the explicit DFA algebra."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import Dfa, empty_dfa, universal_dfa, word_dfa


def language(dfa: Dfa, max_length: int = 4) -> set[tuple[int, ...]]:
    return set(dfa.enumerate_words(max_length))


def all_words(num_chars: int, max_length: int):
    for length in range(max_length + 1):
        yield from itertools.product(range(num_chars), repeat=length)


def test_empty_and_universal():
    assert empty_dfa(2).is_empty()
    assert not universal_dfa(2).is_empty()
    assert universal_dfa(2).accepts_word([0, 1, 1])
    assert not empty_dfa(2).accepts_word([0])
    assert empty_dfa(2).is_subset_of(universal_dfa(2))
    assert not universal_dfa(2).is_subset_of(empty_dfa(2))


def test_word_dfa_accepts_only_its_word():
    dfa = word_dfa([0, 1, 0], 2)
    assert dfa.accepts_word([0, 1, 0])
    assert not dfa.accepts_word([0, 1])
    assert not dfa.accepts_word([0, 1, 0, 0])
    assert not dfa.accepts_word([1, 1, 0])
    assert language(dfa) == {(0, 1, 0)}


def test_complement_and_intersection():
    dfa = word_dfa([1], 2)
    comp = dfa.complement()
    assert comp.accepts_word([])
    assert not comp.accepts_word([1])
    assert comp.accepts_word([0])
    assert dfa.intersect(comp).is_empty()
    assert dfa.union(comp).complement().is_empty()


def test_difference():
    a = universal_dfa(2)
    b = word_dfa([0], 2)
    diff = a.difference(b)
    assert not diff.accepts_word([0])
    assert diff.accepts_word([1])
    assert diff.accepts_word([])


def test_subset_and_counterexample():
    a = word_dfa([0, 1], 2)
    b = universal_dfa(2)
    assert a.is_subset_of(b)
    assert a.counterexample(b) is None
    assert not b.is_subset_of(a)
    witness = b.counterexample(a)
    assert witness is not None
    assert b.accepts_word(witness) and not a.accepts_word(witness)


def test_minimize_collapses_equivalent_states():
    # A DFA for "even number of 1s" written with redundant states.
    transitions = [
        [0, 1],
        [1, 0],
        [2, 3],  # unreachable copy
        [3, 2],
    ]
    dfa = Dfa(2, transitions, frozenset({0, 2}), 0)
    minimized = dfa.minimize()
    assert minimized.num_states == 2
    assert minimized.equivalent(dfa)


def test_invalid_construction_rejected():
    try:
        Dfa(2, [[0]], frozenset(), 0)
    except ValueError:
        pass
    else:  # pragma: no cover
        raise AssertionError("expected ValueError for ragged transition table")


# -- property tests -------------------------------------------------------------------


@st.composite
def random_dfa(draw, num_chars=2, max_states=4):
    n = draw(st.integers(min_value=1, max_value=max_states))
    transitions = [
        [draw(st.integers(min_value=0, max_value=n - 1)) for _ in range(num_chars)]
        for _ in range(n)
    ]
    accepting = frozenset(
        i for i in range(n) if draw(st.booleans())
    )
    start = draw(st.integers(min_value=0, max_value=n - 1))
    return Dfa(num_chars, transitions, accepting, start)


@settings(max_examples=80, deadline=None)
@given(random_dfa())
def test_minimization_preserves_language(dfa):
    minimized = dfa.minimize()
    assert minimized.num_states <= dfa.num_states
    for word in all_words(2, 4):
        assert dfa.accepts_word(word) == minimized.accepts_word(word)


@settings(max_examples=80, deadline=None)
@given(random_dfa(), random_dfa())
def test_subset_agrees_with_word_enumeration(a, b):
    subset = a.is_subset_of(b)
    brute = all(
        (not a.accepts_word(word)) or b.accepts_word(word) for word in all_words(2, 5)
    )
    if subset:
        assert brute
    else:
        witness = a.counterexample(b)
        assert witness is not None
        assert a.accepts_word(witness) and not b.accepts_word(witness)


@settings(max_examples=60, deadline=None)
@given(random_dfa(), random_dfa())
def test_product_constructions_match_semantics(a, b):
    inter = a.intersect(b)
    uni = a.union(b)
    for word in all_words(2, 4):
        assert inter.accepts_word(word) == (a.accepts_word(word) and b.accepts_word(word))
        assert uni.accepts_word(word) == (a.accepts_word(word) or b.accepts_word(word))


@settings(max_examples=60, deadline=None)
@given(random_dfa())
def test_complement_is_involutive_on_language(a):
    comp = a.complement()
    for word in all_words(2, 4):
        assert comp.accepts_word(word) == (not a.accepts_word(word))


# ---------------------------------------------------------------------------
# Seeded-random property tests over larger automata
#
# The hypothesis strategies above stay tiny so the brute-force language
# comparisons are exhaustive; these complementary tests use plain seeded
# `random` to cover bigger state/alphabet counts with sampled words.
# ---------------------------------------------------------------------------


def _seeded_dfa(rng, max_states=12, max_chars=4, num_chars=None):
    n = rng.randint(1, max_states)
    k = num_chars if num_chars is not None else rng.randint(1, max_chars)
    transitions = [[rng.randrange(n) for _ in range(k)] for _ in range(n)]
    accepting = frozenset(s for s in range(n) if rng.random() < 0.4)
    return Dfa(k, transitions, accepting, start=rng.randrange(n))


def _sample_words(rng, dfa, count=60, max_length=10):
    for _ in range(count):
        length = rng.randrange(max_length + 1)
        yield [rng.randrange(dfa.num_chars) for _ in range(length)]


@pytest.mark.parametrize("seed", range(40))
def test_minimize_preserves_language_on_random_samples(seed):
    rng = random.Random(42_000 + seed)
    dfa = _seeded_dfa(rng)
    minimized = dfa.minimize()
    assert minimized.num_states <= max(1, len(dfa.reachable_states()))
    for word in _sample_words(rng, dfa):
        assert dfa.accepts_word(word) == minimized.accepts_word(word), word
    # minimisation is idempotent up to size
    assert minimized.minimize().num_states == minimized.num_states
    # and the minimal automaton recognises the same language as the original
    assert minimized.equivalent(dfa)


@pytest.mark.parametrize("seed", range(40))
def test_counterexample_is_sound_on_random_pairs(seed):
    rng = random.Random(777_000 + seed)
    k = rng.randint(1, 4)
    lhs = _seeded_dfa(rng, num_chars=k)
    rhs = _seeded_dfa(rng, num_chars=k)
    witness = lhs.counterexample(rhs)
    if witness is None:
        assert lhs.is_subset_of(rhs)
        # spot-check with sampled words
        for word in _sample_words(rng, lhs, count=40):
            assert (not lhs.accepts_word(word)) or rhs.accepts_word(word)
    else:
        # every returned counterexample is accepted by lhs and rejected by rhs
        assert lhs.accepts_word(witness)
        assert not rhs.accepts_word(witness)
        assert not lhs.is_subset_of(rhs)
