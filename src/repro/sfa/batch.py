"""The inclusion decider: a product walk over an interned transition table.

Every inclusion ``L(lhs) ⊆ L(rhs)`` over one finite minterm alphabet — the
engine's deferred obligations and the checker's inline queries alike — is
decided here, by one procedure.  It decides by derivatives without compiling
DFAs, in the style of Stanford, Veanes & Bjørner, "Symbolic Boolean
Derivatives for Efficiently Solving Extended Regular Expression Constraints"
(PLDI 2021).

The table (:class:`TransitionTable`) interns derivative formulas to dense
integer state ids, so the product walk runs over int pairs instead of formula
pairs: transitions are per-state rows of successor ids indexed by minterm
position, nullability and the antichain prune flags are precomputed bitsets
(``bytearray`` — one byte per state, replacing the recursive ``nullable()``
walk at every dequeue), and each row is built exactly once and shared by both
sides of every product pair.  Derivatives are memoised per *subformula* per
minterm *class*, not per top-level step: overlapping states (the common case
— ACI-normalised ``and``/``or`` combinations over a shared invariant) never
re-derive their shared parts, and a subformula derives once for all the
minterms it cannot tell apart.  A formula reads a minterm only through its
event atoms' operators and qualifiers, so its classes are the joint outcomes
of those atoms (local mintermization, as in Stanford, Veanes & Bjørner and in
D'Antoni & Veanes, "The Power of Symbolic Automata and Transducers", CAV
2017); the row of a state that mentions one operator out of three takes a
handful of derivatives, not one per minterm.  The same content layout with
``numpy`` arrays was measured and rejected: at the corpus's alphabet sizes
(≤ ~32 minterms) Python-level element access into numpy rows is slower than
plain list indexing, so the dense-int layout stays stdlib.

**The walk.**  :func:`walk` is a breadth-first search of one
product: FIFO order, the witness test (nullable lhs, non-nullable rhs) at
dequeue time, first-witness exit, and two antichain-style prunes — a pair
whose lhs is BOT or whose rhs is TOP cannot lead to a counterexample.
``#prod-states`` is the number of pairs it reached (``len(parents)``).  The
formula-pair walk and the compiled-DFA product search in
``tests/sfa/oracles.py`` decide the same queries independently; the
differential suites hold verdicts, witnesses and ``#Prod`` equal to theirs.

**One obligation, one discharge.**  Every inclusion is decided on its own
(:func:`repro.sfa.inclusion.decide_inclusion`): its alphabet is built on a
fresh solver, and each context case gets a fresh table and one
:func:`decide`.
"""

from __future__ import annotations

import time
from collections import deque
from typing import TYPE_CHECKING, Optional, Sequence

from .. import smt
from ..obs import trace
from . import symbolic
from .alphabet import Alphabet
from .derivatives import CompilationError, _evaluate_qualifier, nullable, undetermined_qualifier
from .symbolic import Sfa

if TYPE_CHECKING:
    from .inclusion import InclusionStats


#: event-atom class codes: a derivative of BOT (another operator, or a false
#: qualifier), of TOP, or an undetermined qualifier
_BOT_CODE, _TOP_CODE, _UNDETERMINED_CODE = 0, 1, 2
_OUTCOME_CODES = {False: _BOT_CODE, True: _TOP_CODE, None: _UNDETERMINED_CODE}
_REFINING_KINDS = frozenset((symbolic.K_AND, symbolic.K_OR, symbolic.K_CONCAT, symbolic.K_UNTIL))


class TransitionTable:
    """An interned (state-id × minterm-index) transition table for one alphabet.

    States are hash-consed SFA formulas interned to dense ids on first sight;
    ``row(state)`` lazily computes the full successor row and memoises it, so
    the walk only ever pays for the reachable part of the table, and pays for
    it once however many product pairs reach the state.
    A row takes one derivative per minterm *class* of its state (see
    :meth:`_entry`) and copies it to the class's other minterms.
    """

    __slots__ = (
        "alphabet",
        "characters",
        "num_chars",
        "context_truth",
        "formulas",
        "nullable",
        "is_bot",
        "is_top",
        "rows",
        "rows_built",
        "derivatives",
        "_id_of",
        "_truths",
        "_uniform",
        "_vectors",
        "_entries",
    )

    def __init__(self, alphabet: Alphabet) -> None:
        self.alphabet = alphabet
        self.characters = alphabet.characters
        self.num_chars = len(alphabet.characters)
        self.context_truth = alphabet.context_truth()
        # the merged (context case + minterm) valuation, computed once per
        # minterm instead of once per K_EVENT derivative step
        self._truths = []
        for character in self.characters:
            truth = dict(self.context_truth)
            truth.update(character.truth())
            self._truths.append(truth)
        self._id_of: dict[Sfa, int] = {}
        self.formulas: list[Sfa] = []
        #: bitsets indexed by state id (one byte per state)
        self.nullable = bytearray()
        self.is_bot = bytearray()
        self.is_top = bytearray()
        self.rows: list[Optional[list[int]]] = []
        self.rows_built = 0
        #: derivative computations (memo misses); work accounting for tests,
        #: never billed into the tables
        self.derivatives = 0
        self._uniform = (0,) * self.num_chars
        #: interned class vectors, so equal partitions are one object
        self._vectors: dict[tuple[int, ...], tuple[int, ...]] = {self._uniform: self._uniform}
        #: subformula -> (class vector, derivative per class)
        self._entries: dict[Sfa, tuple[tuple[int, ...], list[Optional[Sfa]]]] = {}

    def intern(self, formula: Sfa) -> int:
        state = self._id_of.get(formula)
        if state is None:
            state = len(self.formulas)
            self._id_of[formula] = state
            self.formulas.append(formula)
            self.rows.append(None)
            self.nullable.append(1 if nullable(formula) else 0)
            self.is_bot.append(1 if formula is symbolic.BOT else 0)
            self.is_top.append(1 if formula is symbolic.TOP else 0)
        return state

    def row(self, state: int) -> list[int]:
        row = self.rows[state]
        if row is not None:
            return row
        formula = self.formulas[state]
        vector, per_class = self._entry(formula)
        targets: list[Optional[int]] = [None] * len(per_class)
        row = []
        for index, cls in enumerate(vector):
            target = targets[cls]
            if target is None:
                target = targets[cls] = self.intern(self._derive(formula, index))
            row.append(target)
        self.rows[state] = row
        self.rows_built += 1
        return row

    def _entry(self, formula: Sfa) -> tuple[tuple[int, ...], list[Optional[Sfa]]]:
        """The formula's minterm classes and its per-class derivative memo.

        The class vector maps each minterm position to a small class id, and
        equal vectors are one interned object.  ``_derive`` reads a minterm
        only through its signature name and the truth of the formula's event
        qualifiers, so minterms in one class share the derivative:

        * an event atom has one class per outcome — BOT (other operator, or
          qualifier false), TOP (qualifier true), or undetermined (the
          derivative raises, at each such minterm with its own message);
        * TOP, BOT, guards and ``next`` derive alike on every minterm;
        * ``not`` keeps its child's classes, and ``and``/``or``/``concat``/
          ``until`` refine their children's classes jointly.
        """
        entry = self._entries.get(formula)
        if entry is not None:
            return entry
        kind = formula.kind
        if kind == symbolic.K_EVENT:
            # the outcome codes themselves are the class ids
            signature, phi = formula.payload
            name = signature.name
            codes = tuple([
                _OUTCOME_CODES[smt.evaluate(phi, truth)]
                if character.signature.name == name
                else _BOT_CODE
                for character, truth in zip(self.characters, self._truths)
            ])
            vector = self._vectors.setdefault(codes, codes)
        elif kind == symbolic.K_NOT:
            vector = self._entry(formula.children[0])[0]
        elif kind in _REFINING_KINDS:
            vectors: list[tuple[int, ...]] = []
            for child in formula.children:
                child_vector = self._entry(child)[0]
                if child_vector is not self._uniform and all(
                    child_vector is not seen for seen in vectors
                ):
                    vectors.append(child_vector)
            if not vectors:
                vector = self._uniform
            elif len(vectors) == 1:
                vector = vectors[0]
            else:  # renumber the joint keys by first occurrence
                ids: dict[tuple[int, ...], int] = {}
                joint = tuple([ids.setdefault(key, len(ids)) for key in zip(*vectors)])
                vector = self._vectors.setdefault(joint, joint)
        else:  # TOP, BOT, guard, next
            vector = self._uniform
        entry = (vector, [None] * (max(vector, default=0) + 1))
        self._entries[formula] = entry
        return entry

    def _derive(self, formula: Sfa, index: int) -> Sfa:
        """Memoised Brzozowski derivative w.r.t. minterm ``index``.

        The plain recursion is ``derivative`` in ``tests/sfa/oracles.py``;
        this one memoises every *subformula* per minterm class
        (:meth:`_entry`), so shared parts of sibling states are derived once
        per class for the whole table, and minterms the subformula cannot
        tell apart share one derivation.  Errors are never memoised: an
        undetermined qualifier raises at every minterm that reaches it.
        """
        vector, per_class = self._entries.get(formula) or self._entry(formula)
        cls = vector[index]
        cached = per_class[cls]
        if cached is not None:
            return cached
        self.derivatives += 1
        kind = formula.kind
        if kind == symbolic.K_TOP:
            result = symbolic.TOP
        elif kind == symbolic.K_BOT:
            result = symbolic.BOT
        elif kind == symbolic.K_EVENT:
            if cls == _UNDETERMINED_CODE:
                raise undetermined_qualifier(formula.payload[1], self._truths[index])
            result = symbolic.TOP if cls == _TOP_CODE else symbolic.BOT
        elif kind == symbolic.K_GUARD:
            result = (
                symbolic.TOP
                if _evaluate_qualifier(formula.payload, self.context_truth)
                else symbolic.BOT
            )
        elif kind == symbolic.K_NOT:
            result = symbolic.not_(self._derive(formula.children[0], index))
        elif kind == symbolic.K_AND:
            result = symbolic.and_(*(self._derive(c, index) for c in formula.children))
        elif kind == symbolic.K_OR:
            result = symbolic.or_(*(self._derive(c, index) for c in formula.children))
        elif kind == symbolic.K_NEXT:
            result = formula.children[0]
        elif kind == symbolic.K_UNTIL:
            lhs, rhs = formula.children
            result = symbolic.or_(
                self._derive(rhs, index),
                symbolic.and_(self._derive(lhs, index), formula),
            )
        elif kind == symbolic.K_CONCAT:
            lhs, rhs = formula.children
            left_part = symbolic.concat(self._derive(lhs, index), rhs)
            if nullable(lhs):
                result = symbolic.or_(left_part, self._derive(rhs, index))
            else:
                result = left_part
        else:
            raise AssertionError(kind)
        per_class[cls] = result
        return result


class Walk:
    """The outcome of one product walk: the reached pairs and the witness."""

    __slots__ = ("parents", "witness", "explored")

    def __init__(self) -> None:
        self.parents: dict[tuple[int, int], Optional[tuple[tuple[int, int], int]]] = {}
        self.witness: Optional[tuple[int, ...]] = None
        self.explored = 0

    def automaton_states(self) -> int:
        """Distinct lhs-side plus rhs-side states the walk reached.

        This is the walk's own share of the two automata — the part the
        paper's compiled construction would have materialised for this
        query.  It is a pure function of the query, independent of which
        other walks shared the table.
        """
        return len({a for a, _ in self.parents}) + len({b for _, b in self.parents})


def walk(table: TransitionTable, lhs: Sfa, rhs: Sfa, *, max_pairs: int = 1_000_000) -> Walk:
    """Breadth-first search of the ``(lhs, rhs)`` product over ``table``.

    FIFO order, the BOT/TOP prunes, the witness test at dequeue, first-witness
    exit, and ``explored == len(parents)``.  Raises :class:`CompilationError`
    when the walk reaches ``max_pairs`` pairs, or when a qualifier is not
    determined by a minterm.
    """
    result = Walk()
    parents = result.parents
    a, b = table.intern(lhs), table.intern(rhs)
    if table.is_bot[a] or table.is_top[b]:
        return result  # pruned start: included, nothing explored
    start = (a, b)
    parents[start] = None
    frontier: deque[tuple[int, int]] = deque([start])

    nullable_flags = table.nullable
    is_bot = table.is_bot
    is_top = table.is_top
    num_chars = table.num_chars
    row_of = table.row
    while frontier:
        pair = frontier.popleft()
        a, b = pair
        if nullable_flags[a] and not nullable_flags[b]:
            word: list[int] = []
            node: Optional[tuple[int, int]] = pair
            while parents[node] is not None:
                node, index = parents[node]
                word.append(index)
            result.witness = tuple(reversed(word))
            break
        row_a = row_of(a)
        row_b = row_of(b)
        for index in range(num_chars):
            ta = row_a[index]
            tb = row_b[index]
            if is_bot[ta] or is_top[tb]:
                continue
            target = (ta, tb)
            if target in parents:
                continue
            if len(parents) >= max_pairs:
                raise CompilationError(f"lazy product walk exceeded {max_pairs} pairs")
            parents[target] = (pair, index)
            frontier.append(target)
    result.explored = len(parents)
    return result


def render_witness(alphabet: Alphabet, witness: Sequence[int]) -> list[str]:
    """Render a character-index witness as a readable event trace.

    Each step shows the operator name and the qualifier valuation of the
    minterm (:meth:`Character.describe`), so failure messages read as
    ``put((key == x), not (value == x))`` rather than as raw indices.
    """
    return [alphabet.characters[index].describe() for index in witness]


def decide(
    table: TransitionTable,
    lhs: Sfa,
    rhs: Sfa,
    stats: InclusionStats,
    *,
    max_pairs: int = 1_000_000,
) -> Optional[list[str]]:
    """Decide ``lhs ⊆ rhs`` under the table's context case and bill the walk.

    Returns the rendered witness trace, or ``None`` when the inclusion holds.
    A completed walk is recorded in ``stats``; a walk that raises
    :class:`CompilationError` is not.
    """
    started = time.perf_counter()
    with trace.span("inclusion.walk", cat="discharge", characters=table.num_chars):
        found = walk(table, lhs, rhs, max_pairs=max_pairs)
    stats.record_walk(found, table.num_chars, time.perf_counter() - started)
    if found.witness is None:
        return None
    return render_witness(table.alphabet, found.witness)
