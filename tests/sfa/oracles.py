"""Reference deciders for the differential tests of the inclusion walk.

Production decides every inclusion with one procedure: the interned
transition-table walk of :mod:`repro.sfa.batch`, over alphabets found by
solver-guided enumeration.  This module keeps independent implementations of
the same steps, used only as oracles:

* :func:`lazy_inclusion_search` — a breadth-first product walk over pairs of
  hash-consed derivative *formulas*, with the BOT/TOP subsumption prunes.
  The table walk must replicate it step for step: same witness, same
  explored-pair count (``#Prod``), same budget error;
* :func:`compile_dfa` — compiles a formula to a complete :class:`Dfa` over the
  minterm alphabet (the paper's Algorithm 1); the DFA product search then
  decides inclusion and reconstructs the same shortest witness.

* :func:`exhaustive_enumerate_alphabets` — the per-candidate minterm walk,
  one SMT query per conjunction, with the signature of
  :func:`repro.sfa.alphabet.enumerate_alphabets`;
  :func:`use_exhaustive_enumeration` swaps it in for a whole test.

:func:`oracle_check` lifts the formula walk to a whole ``Γ ⊢ A ⊆ B`` query —
alphabets per context case, first witness wins — so a test can compare it
with :meth:`InclusionChecker.check_detailed` on verdict, witness and #Prod.
:func:`record_discharges` captures what the engine's discharge loop
decided during a run, so the same comparison covers the corpus;
:func:`record_tables` captures every transition table a run built, so its
rows can be held against :func:`derivative`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from repro import smt
from repro.smt.terms import Term
from repro.sfa import alphabet as alphabet_module
from repro.sfa import symbolic
from repro.sfa.alphabet import (
    Alphabet,
    AlphabetError,
    AlphabetStats,
    Character,
    LiteralSets,
    build_alphabets,
    resolve_max_literals,
)
from repro.sfa.batch import render_witness
from repro.sfa.derivatives import CompilationError, _evaluate_qualifier, nullable
from repro.sfa.symbolic import Sfa

#: the production enumeration, kept for the unfiltered path (and unaffected
#: by :func:`use_exhaustive_enumeration`)
_GUIDED_ENUMERATE = alphabet_module.enumerate_alphabets


# ---------------------------------------------------------------------------
# Explicit DFAs over a finite character alphabet
# ---------------------------------------------------------------------------


@dataclass
class Dfa:
    """A complete deterministic finite automaton.

    States are integers ``0..n-1``; characters are integers ``0..k-1``;
    every state has a transition on every character.
    """

    num_chars: int
    transitions: list[list[int]]
    accepting: frozenset[int]
    start: int = 0

    def __post_init__(self) -> None:
        for state, row in enumerate(self.transitions):
            if len(row) != self.num_chars:
                raise ValueError(f"state {state} has {len(row)} transitions, expected {self.num_chars}")
            for target in row:
                if not (0 <= target < len(self.transitions)):
                    raise ValueError(f"transition target {target} out of range")
        if not (0 <= self.start < max(1, len(self.transitions))):
            raise ValueError("start state out of range")
        self.accepting = frozenset(self.accepting)

    @property
    def num_states(self) -> int:
        return len(self.transitions)

    @property
    def num_transitions(self) -> int:
        """Total transition count (complete DFA: states × characters)."""
        return self.num_states * self.num_chars

    def accepts_word(self, word: Sequence[int]) -> bool:
        state = self.start
        for char in word:
            if not (0 <= char < self.num_chars):
                raise ValueError(f"character {char} outside alphabet")
            state = self.transitions[state][char]
        return state in self.accepting

    def reachable_states(self) -> set[int]:
        seen = {self.start}
        frontier = [self.start]
        while frontier:
            state = frontier.pop()
            for target in self.transitions[state]:
                if target not in seen:
                    seen.add(target)
                    frontier.append(target)
        return seen

    def is_empty(self) -> bool:
        """Is the recognised language empty?"""
        return not (self.reachable_states() & self.accepting)

    def enumerate_words(self, max_length: int) -> Iterable[tuple[int, ...]]:
        """All accepted words up to ``max_length``."""
        frontier: list[tuple[tuple[int, ...], int]] = [((), self.start)]
        while frontier:
            word, state = frontier.pop(0)
            if state in self.accepting:
                yield word
            if len(word) < max_length:
                for char in range(self.num_chars):
                    frontier.append((word + (char,), self.transitions[state][char]))

    def complement(self) -> "Dfa":
        return Dfa(
            num_chars=self.num_chars,
            transitions=[list(row) for row in self.transitions],
            accepting=frozenset(range(self.num_states)) - self.accepting,
            start=self.start,
        )

    def _product(self, other: "Dfa", accept) -> "Dfa":
        if self.num_chars != other.num_chars:
            raise ValueError("automata must share an alphabet")
        index: dict[tuple[int, int], int] = {}
        transitions: list[list[int]] = []
        accepting: set[int] = set()
        frontier: list[tuple[int, int]] = []

        def state_of(pair: tuple[int, int]) -> int:
            if pair not in index:
                index[pair] = len(transitions)
                transitions.append([0] * self.num_chars)
                frontier.append(pair)
                if accept(pair[0] in self.accepting, pair[1] in other.accepting):
                    accepting.add(index[pair])
            return index[pair]

        start = state_of((self.start, other.start))
        while frontier:
            pair = frontier.pop()
            source = index[pair]
            for char in range(self.num_chars):
                target = (self.transitions[pair[0]][char], other.transitions[pair[1]][char])
                transitions[source][char] = state_of(target)
        return Dfa(self.num_chars, transitions, frozenset(accepting), start)

    def intersect(self, other: "Dfa") -> "Dfa":
        return self._product(other, lambda a, b: a and b)

    def union(self, other: "Dfa") -> "Dfa":
        return self._product(other, lambda a, b: a or b)

    def difference(self, other: "Dfa") -> "Dfa":
        return self._product(other, lambda a, b: a and not b)

    def is_subset_of(self, other: "Dfa") -> bool:
        """L(self) ⊆ L(other)."""
        return self.counterexample_search(other)[0] is None

    def counterexample(self, other: "Dfa") -> tuple[int, ...] | None:
        """A word in L(self) \\ L(other), or ``None`` when included."""
        return self.counterexample_search(other)[0]

    def counterexample_search(
        self, other: "Dfa"
    ) -> tuple[tuple[int, ...] | None, int]:
        """BFS product search: (shortest witness or ``None``, #pairs explored)."""
        if self.num_chars != other.num_chars:
            raise ValueError("automata must share an alphabet")
        start = (self.start, other.start)
        parents: dict[tuple[int, int], tuple[tuple[int, int], int] | None] = {start: None}
        frontier = deque([start])
        while frontier:
            pair = frontier.popleft()
            a, b = pair
            if a in self.accepting and b not in other.accepting:
                word: list[int] = []
                node: tuple[int, int] | None = pair
                while parents[node] is not None:
                    node, char = parents[node]  # type: ignore[misc]
                    word.append(char)
                return tuple(reversed(word)), len(parents)
            for char in range(self.num_chars):
                target = (self.transitions[a][char], other.transitions[b][char])
                if target not in parents:
                    parents[target] = (pair, char)
                    frontier.append(target)
        return None, len(parents)

    def equivalent(self, other: "Dfa") -> bool:
        return self.is_subset_of(other) and other.is_subset_of(self)

    def minimize(self) -> "Dfa":
        """Moore partition-refinement minimisation (restricted to reachable states)."""
        reachable = sorted(self.reachable_states())
        remap = {state: i for i, state in enumerate(reachable)}
        transitions = [
            [remap[self.transitions[state][c]] for c in range(self.num_chars)]
            for state in reachable
        ]
        accepting = {remap[s] for s in reachable if s in self.accepting}
        start = remap[self.start]
        n = len(reachable)

        partition = [0 if s in accepting else 1 for s in range(n)]
        while True:
            signature: dict = {}
            new_ids: list[int] = []
            for state in range(n):
                sig = (partition[state], tuple(partition[transitions[state][c]] for c in range(self.num_chars)))
                if sig not in signature:
                    signature[sig] = len(signature)
                new_ids.append(signature[sig])
            if new_ids == partition:
                break
            partition = new_ids

        num_blocks = max(partition) + 1
        block_transitions = [[0] * self.num_chars for _ in range(num_blocks)]
        block_accepting: set[int] = set()
        seen_blocks: set[int] = set()
        for state in range(n):
            block = partition[state]
            if block in seen_blocks:
                continue
            seen_blocks.add(block)
            for char in range(self.num_chars):
                block_transitions[block][char] = partition[transitions[state][char]]
            if state in accepting:
                block_accepting.add(block)
        return Dfa(self.num_chars, block_transitions, frozenset(block_accepting), partition[start])


def empty_dfa(num_chars: int) -> Dfa:
    """The automaton recognising the empty language."""
    return Dfa(num_chars, [[0] * num_chars], frozenset(), 0)


def universal_dfa(num_chars: int) -> Dfa:
    """The automaton recognising every word."""
    return Dfa(num_chars, [[0] * num_chars], frozenset({0}), 0)


def word_dfa(word: Sequence[int], num_chars: int) -> Dfa:
    """The automaton recognising exactly ``word``."""
    n = len(word)
    sink = n + 1
    transitions = [[sink] * num_chars for _ in range(n + 2)]
    for i, char in enumerate(word):
        transitions[i][char] = i + 1
    return Dfa(num_chars, transitions, frozenset({n}), 0)


# ---------------------------------------------------------------------------
# Formula derivatives: DFA compilation and the formula-pair product walk
# ---------------------------------------------------------------------------


def derivative(formula: Sfa, character: Character, context_truth: Mapping[Term, bool]) -> Sfa:
    """The Brzozowski derivative of ``formula`` with respect to ``character``.

    ``TransitionTable._derive`` memoises the same recursion per subformula
    per minterm class (the minterms a subformula cannot tell apart); this is
    the plain definition, one call per minterm, that it is checked against.
    """
    kind = formula.kind
    if kind == symbolic.K_TOP:
        return symbolic.TOP
    if kind == symbolic.K_BOT:
        return symbolic.BOT
    if kind == symbolic.K_EVENT:
        signature, phi = formula.payload
        if signature.name != character.signature.name:
            return symbolic.BOT
        truth = dict(context_truth)
        truth.update(character.truth())
        return symbolic.TOP if _evaluate_qualifier(phi, truth) else symbolic.BOT
    if kind == symbolic.K_GUARD:
        return symbolic.TOP if _evaluate_qualifier(formula.payload, context_truth) else symbolic.BOT
    if kind == symbolic.K_NOT:
        return symbolic.not_(derivative(formula.children[0], character, context_truth))
    if kind == symbolic.K_AND:
        return symbolic.and_(*(derivative(c, character, context_truth) for c in formula.children))
    if kind == symbolic.K_OR:
        return symbolic.or_(*(derivative(c, character, context_truth) for c in formula.children))
    if kind == symbolic.K_NEXT:
        return formula.children[0]
    if kind == symbolic.K_UNTIL:
        lhs, rhs = formula.children
        return symbolic.or_(
            derivative(rhs, character, context_truth),
            symbolic.and_(derivative(lhs, character, context_truth), formula),
        )
    if kind == symbolic.K_CONCAT:
        lhs, rhs = formula.children
        left_part = symbolic.concat(derivative(lhs, character, context_truth), rhs)
        if nullable(lhs):
            return symbolic.or_(left_part, derivative(rhs, character, context_truth))
        return left_part
    raise AssertionError(kind)


def compile_dfa(formula: Sfa, alphabet: Alphabet, *, max_states: int = 20000) -> Dfa:
    """Compile a symbolic automaton into a complete DFA over ``alphabet``.

    States are the derivative formulas reachable from ``formula``, numbered
    in breadth-first discovery order; a state accepts iff it is nullable.
    """
    context_truth = alphabet.context_truth()
    state_of: dict[Sfa, int] = {formula: 0}
    order: list[Sfa] = [formula]
    transitions: list[list[int]] = []
    for current in order:  # grows while iterating: FIFO discovery order
        row: list[int] = []
        for character in alphabet.characters:
            next_formula = derivative(current, character, context_truth)
            target = state_of.get(next_formula)
            if target is None:
                target = len(order)
                if target >= max_states:
                    raise CompilationError(
                        f"derivative construction exceeded {max_states} states"
                    )
                state_of[next_formula] = target
                order.append(next_formula)
            row.append(target)
        transitions.append(row)
    accepting = frozenset(i for i, f in enumerate(order) if nullable(f))
    return Dfa(len(alphabet.characters), transitions, accepting, 0)


def lazy_inclusion_search(
    lhs: Sfa,
    rhs: Sfa,
    alphabet: Alphabet,
    *,
    max_pairs: int = 1_000_000,
) -> tuple[Optional[tuple[int, ...]], int]:
    """Decide ``L(lhs) ⊆ L(rhs)`` by a breadth-first walk over formula pairs.

    A pair with a nullable left side and a non-nullable right side is a
    counterexample; pairs whose left side is BOT or right side is TOP are
    pruned.  Returns ``(witness character indices or None, #pairs explored)``.
    """
    context_truth = alphabet.context_truth()
    characters = alphabet.characters
    memo: dict[tuple[int, int], Sfa] = {}

    def step(formula: Sfa, index: int) -> Sfa:
        key = (formula.sfa_id, index)
        cached = memo.get(key)
        if cached is None:
            cached = memo[key] = derivative(formula, characters[index], context_truth)
        return cached

    def pruned(a: Sfa, b: Sfa) -> bool:
        return a is symbolic.BOT or b is symbolic.TOP

    start = (lhs, rhs)
    if pruned(*start):
        return None, 0
    parents: dict[tuple[Sfa, Sfa], tuple[tuple[Sfa, Sfa], int] | None] = {start: None}
    frontier: deque[tuple[Sfa, Sfa]] = deque([start])
    while frontier:
        pair = frontier.popleft()
        a, b = pair
        if nullable(a) and not nullable(b):
            word: list[int] = []
            node: tuple[Sfa, Sfa] | None = pair
            while parents[node] is not None:
                node, index = parents[node]  # type: ignore[misc]
                word.append(index)
            return tuple(reversed(word)), len(parents)
        for index in range(len(characters)):
            target = (step(a, index), step(b, index))
            if pruned(*target) or target in parents:
                continue
            if len(parents) >= max_pairs:
                raise CompilationError(f"lazy product walk exceeded {max_pairs} pairs")
            parents[target] = (pair, index)
            frontier.append(target)
    return None, len(parents)


# ---------------------------------------------------------------------------
# Exhaustive minterm enumeration
# ---------------------------------------------------------------------------


def _satisfiable_combinations(
    solver: smt.Solver,
    base_formula: Term,
    literals: Sequence[Term],
    stats: AlphabetStats,
    *,
    count_candidates: bool,
) -> Iterable[tuple[tuple[Term, bool], ...]]:
    """Enumerate the satisfiable signed combinations of ``literals``.

    One SMT query per candidate conjunction; whole subtrees whose partial
    conjunction is already unsatisfiable are pruned.
    """

    def recurse(index: int, chosen: tuple[tuple[Term, bool], ...], formula: Term):
        if index == len(literals):
            if count_candidates:
                stats.minterm_candidates += 1
            yield chosen
            return
        literal = literals[index]
        for value in (True, False):
            signed = literal if value else smt.not_(literal)
            extended = smt.and_(formula, signed)
            if not solver.is_satisfiable(extended):
                if count_candidates:
                    stats.minterm_candidates += 2 ** (len(literals) - index - 1)
                continue
            yield from recurse(index + 1, chosen + ((literal, value),), extended)

    if not literals:
        if solver.is_satisfiable(base_formula):
            if count_candidates:
                stats.minterm_candidates += 1
            yield ()
        return
    yield from recurse(0, (), base_formula)


def exhaustive_enumerate_alphabets(
    solver: smt.Solver,
    hypotheses: Sequence[Term],
    literal_sets: LiteralSets,
    operators,
    *,
    max_literals: Optional[int] = None,
    filter_unsat: bool = True,
    stats: Optional[AlphabetStats] = None,
) -> list[Alphabet]:
    """The per-candidate reference for ``enumerate_alphabets``.

    Must yield byte-identical alphabets (same context cases, same minterms,
    same order) and the same candidate/minterm counters.
    """
    if not filter_unsat:
        return _GUIDED_ENUMERATE(
            solver, hypotheses, literal_sets, operators,
            max_literals=max_literals, filter_unsat=False, stats=stats,
        )
    max_literals = resolve_max_literals(max_literals, filter_unsat)
    stats = stats if stats is not None else AlphabetStats()
    if len(literal_sets.context_literals) > max_literals:
        raise AlphabetError(
            f"{len(literal_sets.context_literals)} context literals exceed the "
            f"enumeration budget of {max_literals}"
        )
    for name, lits in literal_sets.event_literals.items():
        if len(lits) > max_literals:
            raise AlphabetError(
                f"operator {name} has {len(lits)} event literals, exceeding the "
                f"enumeration budget of {max_literals}"
            )
    hypothesis_formula = smt.and_(*hypotheses)
    alphabets = []
    for context_case in _satisfiable_combinations(
        solver, hypothesis_formula, literal_sets.context_literals, stats,
        count_candidates=False,
    ):
        context_formula = smt.and_(
            hypothesis_formula,
            *(lit if value else smt.not_(lit) for lit, value in context_case),
        )
        stats.context_cases += 1
        characters = []
        for signature in operators:
            literals = literal_sets.event_literals.get(signature.name, ())
            for assignment in _satisfiable_combinations(
                solver, context_formula, literals, stats, count_candidates=True
            ):
                stats.satisfiable_minterms += 1
                characters.append(Character(signature, assignment))
        alphabets.append(Alphabet(context_case=context_case, characters=tuple(characters)))
    return alphabets


def use_exhaustive_enumeration(monkeypatch) -> None:
    """Make every alphabet construction for the rest of the test exhaustive.

    ``build_alphabets`` reaches the enumeration through the
    ``repro.sfa.alphabet`` module global.
    """
    monkeypatch.setattr(alphabet_module, "enumerate_alphabets", exhaustive_enumerate_alphabets)


# ---------------------------------------------------------------------------
# Whole-query oracle and corpus capture
# ---------------------------------------------------------------------------


@dataclass
class OracleResult:
    included: bool
    counterexample: Optional[list[str]]
    #: explored product pairs summed over the decided context cases (#Prod)
    prod_states: int


def oracle_check(
    hypotheses: Sequence[Term],
    lhs: Sfa,
    rhs: Sfa,
    operators,
    *,
    axioms: Sequence = (),
    compiled: bool = False,
    **alphabet_options,
) -> OracleResult:
    """Decide ``Γ ⊢ lhs ⊆ rhs`` with an oracle walk per context case.

    ``compiled=False`` walks formula pairs (:func:`lazy_inclusion_search`);
    ``compiled=True`` searches the product of the two compiled DFAs, whose
    explored-pair count includes the pairs the formula walk prunes.
    """
    solver = smt.Solver(axioms=list(axioms))
    alphabets = build_alphabets(solver, list(hypotheses), [lhs, rhs], operators, **alphabet_options)
    explored_total = 0
    for alphabet in alphabets:
        if compiled:
            witness, explored = compile_dfa(lhs, alphabet).counterexample_search(
                compile_dfa(rhs, alphabet)
            )
        else:
            witness, explored = lazy_inclusion_search(lhs, rhs, alphabet)
        explored_total += explored
        if witness is not None:
            return OracleResult(False, render_witness(alphabet, witness), explored_total)
    return OracleResult(True, None, explored_total)


def record_discharges(monkeypatch) -> list[tuple[object, dict]]:
    """Capture every ``(obligation, result)`` the engine discharges.

    Wraps the engine's discharge loop for the rest of the
    test; the returned list fills as the run proceeds (in-process runs
    only — a forked dispatch worker's calls happen in the child).
    """
    from repro.engine import scheduler

    captured: list[tuple[object, dict]] = []
    original = scheduler.discharge_group

    def recording(obligations, *args, **kwargs):
        results = original(obligations, *args, **kwargs)
        captured.extend(zip(obligations, results))
        return results

    monkeypatch.setattr(scheduler, "discharge_group", recording)
    return captured


def record_tables(monkeypatch) -> list:
    """Capture every :class:`~repro.sfa.batch.TransitionTable` built for the
    rest of the test — the engine's discharge loop and the checker's
    inline queries alike (in-process runs only)."""
    from repro.sfa.batch import TransitionTable

    tables: list = []
    original = TransitionTable.__init__

    def recording(self, alphabet):
        original(self, alphabet)
        tables.append(self)

    monkeypatch.setattr(TransitionTable, "__init__", recording)
    return tables
