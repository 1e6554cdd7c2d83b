"""Brzozowski derivatives of symbolic automata: the pieces the walk shares.

Once the alphabet transformation has produced a finite set of characters
(minterms), the language of a symbolic LTLf/regex formula becomes regular
over that alphabet, and derivatives decide it without an explicit automaton:

* the states are (hash-consed, ACI-normalised) formulas,
* the transition on a character is the derivative of the state formula with
  respect to that character (:meth:`repro.sfa.batch.TransitionTable.row`),
* a state is accepting iff its formula is *nullable* (accepts the empty
  trace).

This matches the role of ``AlphaTrans`` + FA construction in the paper's
Algorithm 1/2 while never materialising the automata.  The module holds what
the table walk and the run-wide step memo share: :func:`nullable`, qualifier
evaluation under a minterm, the resource error, and :class:`DerivativeCache`.
"""

from __future__ import annotations

from typing import Mapping, Optional

from .. import smt
from ..smt.terms import Term
from . import symbolic
from .alphabet import Alphabet
from .symbolic import Sfa


class CompilationError(RuntimeError):
    """Raised when a derivative walk exceeds its budget or cannot evaluate."""


def nullable(formula: Sfa) -> bool:
    """Does the formula accept the empty trace?"""
    kind = formula.kind
    if kind == symbolic.K_TOP:
        return True
    if kind in (symbolic.K_BOT, symbolic.K_EVENT, symbolic.K_GUARD, symbolic.K_NEXT, symbolic.K_UNTIL):
        return False
    if kind == symbolic.K_NOT:
        return not nullable(formula.children[0])
    if kind == symbolic.K_AND:
        return all(nullable(c) for c in formula.children)
    if kind == symbolic.K_OR:
        return any(nullable(c) for c in formula.children)
    if kind == symbolic.K_CONCAT:
        return nullable(formula.children[0]) and nullable(formula.children[1])
    raise AssertionError(kind)


def _evaluate_qualifier(phi: Term, truth: Mapping[Term, bool]) -> bool:
    value = smt.evaluate(phi, dict(truth))
    if value is None:
        missing = [a for a in smt.atoms(phi) if a not in truth]
        raise CompilationError(
            f"qualifier {phi!r} is not determined by the minterm assignment; "
            f"missing literals: {missing}"
        )
    return value


class DerivativeCache:
    """A cross-obligation memo for Brzozowski derivative steps.

    SFA formulas are hash-consed, so ``sfa_id`` is a content address; a
    character and a context case are identified by their literal valuations
    (``term_id`` is global).  The cache interns each distinct context case
    and character it sees into a small integer, so the per-step key is a
    cheap ``(sfa_id, context id, character id)`` int tuple, and the memo
    survives across the many walks of one method — the invariant side of
    every obligation re-derives the same formulas over the same minterms.

    A derivative is a pure function of that key, so sharing the cache
    between obligations (or handing forked workers a copy-on-write view of
    it) can never change a verdict or a counter — only wall-clock time.  The
    size cap wipes the memo wholesale, like every other cache in the
    pipeline, and counts the eviction.
    """

    def __init__(self, max_entries: int = 262_144, max_interned: int = 65_536) -> None:
        self.max_entries = max_entries
        #: cap on the interning side tables (alphabets/contexts/characters);
        #: crossing it wipes them *and* the step store together, so the
        #: whole cache stays bounded, not just the derivative entries
        self.max_interned = max_interned
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._store: dict[tuple[int, int, int], Sfa] = {}
        #: context-case fingerprint -> id
        self._context_ids: dict[tuple, int] = {}
        #: character fingerprint -> id
        self._character_ids: dict[tuple, int] = {}
        #: alphabet fingerprint -> (context id, per-character ids)
        self._alphabet_keys: dict[tuple, tuple[int, tuple[int, ...]]] = {}
        # Ids are drawn from counters that survive every wipe, never from the
        # tables' sizes: an id handed to an in-flight walk must stay unique
        # forever, or entries it stores after an eviction could alias a
        # freshly interned alphabet's keys and replay the wrong derivative.
        self._next_id = 0

    def __len__(self) -> int:
        return len(self._store)

    def _fresh_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def keys_for(self, alphabet: Alphabet) -> tuple[int, tuple[int, ...]]:
        """Intern an alphabet's context case and characters into step keys."""
        fingerprint = alphabet.fingerprint()
        cached = self._alphabet_keys.get(fingerprint)
        if cached is None:
            if (
                len(self._alphabet_keys) >= self.max_interned
                or len(self._character_ids) >= self.max_interned
            ):
                self._alphabet_keys.clear()
                self._context_ids.clear()
                self._character_ids.clear()
                self._store.clear()
                self.evictions += 1
            context_fp, character_fps = fingerprint
            context_id = self._context_ids.get(context_fp)
            if context_id is None:
                context_id = self._context_ids[context_fp] = self._fresh_id()
            character_ids = []
            for fp in character_fps:
                character_id = self._character_ids.get(fp)
                if character_id is None:
                    character_id = self._character_ids[fp] = self._fresh_id()
                character_ids.append(character_id)
            cached = (context_id, tuple(character_ids))
            self._alphabet_keys[fingerprint] = cached
        return cached

    def lookup(self, key: tuple[int, int, int]) -> Optional[Sfa]:
        found = self._store.get(key)
        if found is not None:
            self.hits += 1
        else:
            self.misses += 1
        return found

    def store(self, key: tuple[int, int, int], value: Sfa) -> None:
        if len(self._store) >= self.max_entries:
            self._store.clear()
            self.evictions += 1
        self._store[key] = value
