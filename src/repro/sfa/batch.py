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
minterm, not per top-level step: overlapping states (the common case —
ACI-normalised ``and``/``or`` combinations over a shared invariant) never
re-derive their shared parts.  The same content layout with ``numpy`` arrays
was measured and rejected: at the corpus's alphabet sizes (≤ ~32 minterms)
Python-level element access into numpy rows is slower than plain list
indexing, so the dense-int layout stays stdlib.

**The walk.**  :func:`_lockstep_search` is a breadth-first search of the
product: FIFO order, the witness test (nullable lhs, non-nullable rhs) at
dequeue time, first-witness exit, and two antichain-style prunes — a pair
whose lhs is BOT or whose rhs is TOP cannot lead to a counterexample.
``#prod-states`` is the number of pairs it reached (``len(parents)``).  The
formula-pair walk and the compiled-DFA product search in
``tests/sfa/oracles.py`` decide the same queries independently; the
differential suites hold verdicts, witnesses and ``#Prod`` equal to theirs.

**Groups.**  The engine discharges its cold obligations grouped by alphabet
key (:func:`discharge_group`): the group's alphabet is built (or replayed)
once through the shared :class:`AlphabetMemo`, and all members walk one table
in level lockstep, so a row computed for one member is already in the table
when a sibling reaches the same state.  Sharing never changes an answer:
per member the walk is the same BFS, and the memo replays the recorded
construction bill into every member's counters.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

from ..obs import trace
from ..smt.solver import SolverError, SolverStats
from . import symbolic
from .alphabet import Alphabet, AlphabetError, AlphabetMemo, AlphabetStats, LiteralSets
from .derivatives import CompilationError, DerivativeCache, _evaluate_qualifier, nullable
from .signatures import OperatorRegistry
from .symbolic import Sfa


class TransitionTable:
    """An interned (state-id × minterm-index) transition table for one alphabet.

    States are hash-consed SFA formulas interned to dense ids on first sight;
    ``row(state)`` lazily computes the full successor row — one derivative per
    minterm — and memoises it, so the walk only ever pays for the reachable
    part of the table, and pays for it once however many product pairs (or
    group members) reach the state.
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
        "_id_of",
        "_truths",
        "_memos",
        "_cache",
        "_cache_keys",
    )

    def __init__(self, alphabet: Alphabet, *, cache: Optional[DerivativeCache] = None) -> None:
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
        #: per-minterm subformula-level derivative memos
        self._memos: list[dict[Sfa, Sfa]] = [dict() for _ in self.characters]
        # Top-level steps additionally go through the run-wide DerivativeCache
        # (when the checker shares one): its keys are content addresses, so
        # tables of different groups and inline queries reuse each other's
        # steps across alphabet reuse boundaries.
        self._cache = cache
        self._cache_keys = cache.keys_for(alphabet) if cache is not None else None

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
        cache = self._cache
        row = []
        if cache is not None:
            context_id, character_ids = self._cache_keys
            sfa_id = formula.sfa_id
            for index in range(self.num_chars):
                key = (sfa_id, context_id, character_ids[index])
                target = cache.lookup(key)
                if target is None:
                    target = self._derive(formula, index)
                    cache.store(key, target)
                row.append(self.intern(target))
        else:
            for index in range(self.num_chars):
                row.append(self.intern(self._derive(formula, index)))
        self.rows[state] = row
        self.rows_built += 1
        return row

    def _derive(self, formula: Sfa, index: int) -> Sfa:
        """Memoised Brzozowski derivative w.r.t. minterm ``index``.

        The plain recursion is ``derivative`` in ``tests/sfa/oracles.py``;
        this one memoises every *subformula*, so shared parts of sibling
        states are derived once per minterm for the whole table.
        """
        memo = self._memos[index]
        cached = memo.get(formula)
        if cached is not None:
            return cached
        kind = formula.kind
        if kind == symbolic.K_TOP:
            result = symbolic.TOP
        elif kind == symbolic.K_BOT:
            result = symbolic.BOT
        elif kind == symbolic.K_EVENT:
            signature, phi = formula.payload
            if signature.name != self.characters[index].signature.name:
                result = symbolic.BOT
            else:
                result = (
                    symbolic.TOP
                    if _evaluate_qualifier(phi, self._truths[index])
                    else symbolic.BOT
                )
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
        memo[formula] = result
        return result


class _Walk:
    """One member's product-BFS state inside a lockstep round."""

    __slots__ = ("parents", "frontier", "done", "witness", "error", "explored", "seconds")

    def __init__(self) -> None:
        self.parents: dict[tuple[int, int], Optional[tuple[tuple[int, int], int]]] = {}
        self.frontier: deque[tuple[int, int]] = deque()
        self.done = False
        self.witness: Optional[tuple[int, ...]] = None
        self.error: Optional[Exception] = None
        self.explored = 0
        self.seconds = 0.0

    def automaton_states(self) -> int:
        """Distinct lhs-side plus rhs-side states the walk reached.

        This is the walk's own share of the two automata — the part the
        paper's compiled construction would have materialised for this
        query.  It is a pure function of the query, independent of which
        other members shared the table.
        """
        return len({a for a, _ in self.parents}) + len({b for _, b in self.parents})


def _lockstep_search(
    table: TransitionTable,
    pairs: Sequence[tuple[Sfa, Sfa]],
    *,
    max_pairs: int = 1_000_000,
) -> list[_Walk]:
    """BFS every ``(lhs, rhs)`` product over the shared table, in level lockstep.

    Each round advances every live member one breadth-first level, so a row
    computed for one member's frontier is already in the table when a sibling
    reaches the same state.  Per member the walk is the same BFS: FIFO order,
    the BOT/TOP prunes, the witness test at dequeue, ``explored ==
    len(parents)``, and a ``max_pairs`` budget.  Members retire individually
    on first counterexample, fixpoint, or a resource error (the budget, or a
    qualifier the minterm does not determine), which lands in ``error``.
    """
    walks: list[_Walk] = []
    for lhs, rhs in pairs:
        walk = _Walk()
        a, b = table.intern(lhs), table.intern(rhs)
        if table.is_bot[a] or table.is_top[b]:
            walk.done = True  # pruned start: included, nothing explored
        else:
            start = (a, b)
            walk.parents[start] = None
            walk.frontier.append(start)
        walks.append(walk)

    nullable_flags = table.nullable
    is_bot = table.is_bot
    is_top = table.is_top
    num_chars = table.num_chars
    row_of = table.row

    live = [walk for walk in walks if not walk.done]
    while live:
        still_live = []
        for walk in live:
            started = time.perf_counter()
            frontier = walk.frontier
            parents = walk.parents
            try:
                for _ in range(len(frontier)):
                    pair = frontier.popleft()
                    a, b = pair
                    if nullable_flags[a] and not nullable_flags[b]:
                        word: list[int] = []
                        node: Optional[tuple[int, int]] = pair
                        while parents[node] is not None:
                            node, index = parents[node]
                            word.append(index)
                        walk.witness = tuple(reversed(word))
                        walk.done = True
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
                            raise CompilationError(
                                f"lazy product walk exceeded {max_pairs} pairs"
                            )
                        parents[target] = (pair, index)
                        frontier.append(target)
            except CompilationError as exc:
                walk.error = exc
                walk.done = True
            if not walk.done and not frontier:
                walk.done = True  # fixpoint: inclusion holds
            walk.seconds += time.perf_counter() - started
            if not walk.done:
                still_live.append(walk)
        live = still_live

    for walk in walks:
        walk.explored = len(walk.parents)
    return walks


def decide(
    lhs: Sfa,
    rhs: Sfa,
    alphabet: Alphabet,
    *,
    cache: Optional[DerivativeCache] = None,
    max_pairs: int = 1_000_000,
) -> _Walk:
    """Decide one inclusion over one alphabet: a single-member table walk."""
    return _lockstep_search(
        TransitionTable(alphabet, cache=cache), [(lhs, rhs)], max_pairs=max_pairs
    )[0]


@dataclass
class GroupRecord:
    """Per-group accounting of the alphabet-sharing discharge.

    ``queries_executed`` is what the group actually ran (one hermetic
    construction, or zero on a memo hit); ``queries_billed`` is what the
    deterministic tables charge — the recorded bill replayed into every
    member.  For every multi-member group ``executed < billed`` by
    construction.
    """

    members: int = 0
    built: bool = False
    queries_executed: int = 0
    queries_billed: int = 0
    prod_states: int = 0
    error: Optional[str] = None

    def as_dict(self) -> dict:
        return {
            "members": self.members,
            "built": self.built,
            "queries_executed": self.queries_executed,
            "queries_billed": self.queries_billed,
            "prod_states": self.prod_states,
            "error": self.error,
        }


def discharge_group(
    obligations: Sequence,
    operators: OperatorRegistry,
    memo: AlphabetMemo,
    *,
    literal_sets: Optional[LiteralSets] = None,
    max_literals: Optional[int] = None,
    filter_unsat: bool = True,
    strategy: str = "guided",
    derivative_cache: Optional[DerivativeCache] = None,
    max_pairs: int = 1_000_000,
) -> tuple[list[dict], GroupRecord]:
    """Discharge one alphabet-sharing group of obligations set-at-a-time.

    Every obligation must share the group's :class:`AlphabetMemo` content key
    (same hypothesis set, same literal sets, same budget/strategy), which is
    exactly what makes one construction valid for all of them;
    ``literal_sets``, when the caller already collected them for grouping,
    spares collecting them again.  Returns one picklable result dict per
    obligation plus the group record.

    Counter attribution is what discharging the members one by one reports:
    the first member bills the build (``#Alph``), later members bill memo
    hits, and every member replays the identical recorded solver/alphabet
    bill.
    """
    from .inclusion import InclusionStats, render_witness

    group_started = time.perf_counter()
    count = len(obligations)
    first = obligations[0]
    bill_alphabet = AlphabetStats()
    bill_solver = SolverStats()
    try:
        alphabets, built = memo.alphabets_for(
            list(first.hypotheses),
            [first.lhs, first.rhs],
            operators,
            literal_sets=literal_sets,
            max_literals=max_literals,
            filter_unsat=filter_unsat,
            strategy=strategy,
            stats=bill_alphabet,
            solver_stats=bill_solver,
        )
    except (AlphabetError, SolverError) as exc:
        # The construction is pure in the group key, so the failure — and its
        # message — is every member's own: report it for each, with the zero
        # counters a failed hermetic construction leaves behind.
        message = str(exc)
        results = [
            {
                "included": False,
                "counterexample": None,
                "error": message,
                "inclusion": InclusionStats().as_dict(),
                "solver": SolverStats().as_dict(),
                "wall": (time.perf_counter() - group_started) / count,
            }
            for _ in range(count)
        ]
        return results, GroupRecord(members=count, error=message)
    build_seconds = time.perf_counter() - group_started

    member_stats = [InclusionStats() for _ in range(count)]
    for position, stats in enumerate(member_stats):
        stats.context_cases = bill_alphabet.context_cases
        stats.minterm_candidates = bill_alphabet.minterm_candidates
        stats.satisfiable_minterms = bill_alphabet.satisfiable_minterms
        if position == 0 and built:
            stats.alphabet_builds = 1
        else:
            stats.alphabet_memo_hits = 1

    included = [True] * count
    counterexamples: list[Optional[list[str]]] = [None] * count
    errors: list[Optional[str]] = [None] * count
    walk_seconds = [0.0] * count

    pending = list(range(count))
    for alphabet in alphabets:
        with trace.span(
            "inclusion.batch",
            cat="discharge",
            members=len(pending),
            characters=len(alphabet.characters),
        ):
            table = TransitionTable(alphabet, cache=derivative_cache)
            walks = _lockstep_search(
                table,
                [(obligations[i].lhs, obligations[i].rhs) for i in pending],
                max_pairs=max_pairs,
            )
        next_pending = []
        for position, walk in zip(pending, walks):
            walk_seconds[position] += walk.seconds
            if walk.error is not None:
                # earlier alphabets stay counted, the failing one does not
                included[position] = False
                errors[position] = str(walk.error)
                continue
            stats = member_stats[position]
            stats.record_walk(walk, table.num_chars, walk.seconds)
            if walk.witness is not None:
                included[position] = False
                counterexamples[position] = render_witness(alphabet, walk.witness)
            else:
                next_pending.append(position)
        pending = next_pending
        if not pending:
            break

    solver_dict = bill_solver.as_dict()
    results = []
    for position in range(count):
        results.append(
            {
                "included": included[position],
                "counterexample": counterexamples[position],
                "error": errors[position],
                "inclusion": member_stats[position].as_dict(),
                "solver": dict(solver_dict),
                "wall": walk_seconds[position] + build_seconds / count,
            }
        )
    record = GroupRecord(
        members=count,
        built=built,
        queries_executed=bill_solver.queries if built else 0,
        queries_billed=count * bill_solver.queries,
        prod_states=sum(stats.prod_states for stats in member_stats),
    )
    return results, record
