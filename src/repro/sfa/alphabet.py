"""Minterm construction and alphabet transformation (Sec. 5.1, Algorithms 1–2).

Symbolic automata have an unbounded alphabet of events ``op v̄ = v``.  The
inclusion check finitises it:

1. collect the qualifier *literals* appearing in the automata, split into
   **context literals** (mentioning only typing-context variables — ghost
   variables, function parameters) and **event literals** (mentioning the
   formal argument/result variables of some operator);
2. enumerate the satisfiable boolean combinations of the context literals —
   each combination is one *context case* (the ``φ_Γ`` loop of Algorithm 1);
3. within a context case, for each operator enumerate the satisfiable boolean
   combinations of its event literals: these are the **minterms**, and each
   becomes one character of the finite alphabet.

Satisfiability is discharged by :class:`repro.smt.Solver`, which is where the
``#SAT`` statistic of the paper's tables comes from.

Enumeration is solver-guided AllSAT via
:meth:`repro.smt.Solver.enumerate_models`: the base formula is encoded once
and blocking clauses walk the satisfiable assignments directly, so the query
count scales with the number of *satisfiable* minterms rather than with 2^n
candidates.  The original per-candidate depth-first walk, one SMT query per
conjunction, lives on as the reference oracle of the differential suite
(``tests/sfa/oracles.py``, ``tests/sfa/test_enumeration_diff.py``), which
holds both to byte-identical alphabets (same context cases, same minterms,
same order).
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping, Optional, Sequence

from .. import smt
from ..obs import trace
from ..record import FrozenRecord, Record
from ..smt.terms import Term
from ..statsutil import StatsTable
from . import symbolic
from .signatures import EventSignature, OperatorRegistry
from .symbolic import Sfa


class AlphabetError(RuntimeError):
    """Raised when the literal sets are too large to enumerate."""


#: Default enumeration budget: guided enumeration scales with the number of
#: *satisfiable* minterms rather than with 2^n candidates.
DEFAULT_MAX_LITERALS = 24

#: Default budget for ``filter_unsat=False``, which materialises every
#: candidate: that path really does pay 2^n, so it keeps a conservative cap.
EXHAUSTIVE_MAX_LITERALS = 14


def resolve_max_literals(max_literals: Optional[int], filter_unsat: bool) -> int:
    """The effective literal budget: explicit value, else the default."""
    if max_literals is not None:
        return max_literals
    return DEFAULT_MAX_LITERALS if filter_unsat else EXHAUSTIVE_MAX_LITERALS


class LiteralSets(FrozenRecord):
    """Literals collected from a group of symbolic automata."""

    __slots__ = ("context_literals", "event_literals")

    def __init__(
        self,
        context_literals: tuple[Term, ...],
        event_literals: Mapping[str, tuple[Term, ...]],
    ) -> None:
        self.context_literals = context_literals
        self.event_literals = event_literals

    def total(self) -> int:
        return len(self.context_literals) + sum(len(v) for v in self.event_literals.values())


def collect_literals(formulas: Sequence[Sfa], operators: OperatorRegistry) -> LiteralSets:
    """Split the atoms of the automata qualifiers into context/event literals.

    Besides the atoms that literally occur in the qualifiers, the context
    literal set is closed under *pinned-term equalities*: whenever two context
    terms ``t₁`` and ``t₂`` are both pinned to the same formal variable of the
    same operator (``key = t₁`` in one atom, ``key = t₂`` in another), the
    equality ``t₁ = t₂`` is added as a context literal.  Splitting on these
    equalities keeps the truth of per-character facts consistent *across* the
    characters of one abstract trace, which the FA abstraction would otherwise
    lose (and without which valid inclusions such as the Set-on-KVStore
    uniqueness invariant would be rejected).
    """
    context: dict[Term, None] = {}
    per_op: dict[str, dict[Term, None]] = {sig.name: {} for sig in operators}
    #: (operator, formal) -> context terms pinned to that formal
    pinned: dict[tuple[str, int], dict[Term, None]] = {}

    for formula in formulas:
        for node in formula.walk():
            if node.kind == symbolic.K_EVENT:
                signature, phi = node.payload
                formals = set(signature.formals)
                bucket = per_op.setdefault(signature.name, {})
                for atom in smt.atoms(phi):
                    if atom.free_vars() & formals:
                        bucket.setdefault(atom, None)
                        _record_pinned(pinned, signature, atom)
                    else:
                        context.setdefault(atom, None)
            elif node.kind == symbolic.K_GUARD:
                for atom in smt.atoms(node.payload):
                    context.setdefault(atom, None)

    for terms_for_slot in pinned.values():
        slot_terms = list(terms_for_slot)
        for i in range(len(slot_terms)):
            for j in range(i + 1, len(slot_terms)):
                equality = smt.eq(slot_terms[i], slot_terms[j])
                if not (equality.is_true or equality.is_false):
                    context.setdefault(equality, None)

    # Canonical literal order (by content address): the alphabets — and with
    # them the solver's enumeration-cache keys — become independent of the
    # order the formulas were supplied in.
    return LiteralSets(
        context_literals=tuple(sorted(context, key=lambda term: term.term_id)),
        event_literals={
            name: tuple(sorted(bucket, key=lambda term: term.term_id))
            for name, bucket in per_op.items()
        },
    )


def _record_pinned(
    pinned: dict[tuple[str, int], dict[Term, None]],
    signature: EventSignature,
    atom: Term,
) -> None:
    """Record ``formal = context-term`` equations for the pinned-equality closure."""
    from ..smt import terms as t

    if atom.kind != t.EQ:
        return
    lhs, rhs = atom.children
    formals = list(signature.formals)
    for formal_side, other in ((lhs, rhs), (rhs, lhs)):
        if formal_side in formals and not (other.free_vars() & set(formals)):
            slot = (signature.name, formals.index(formal_side))
            pinned.setdefault(slot, {}).setdefault(other, None)


class Character(FrozenRecord):
    """One character of the finitised alphabet: an operator plus a minterm."""

    __slots__ = ("signature", "literal_values")

    def __init__(
        self,
        signature: EventSignature,
        literal_values: tuple[tuple[Term, bool], ...],
    ) -> None:
        self.signature = signature
        self.literal_values = literal_values

    def truth(self) -> dict[Term, bool]:
        return dict(self.literal_values)

    def formula(self) -> Term:
        """The conjunction of signed literals defining this minterm."""
        parts = [lit if value else smt.not_(lit) for lit, value in self.literal_values]
        return smt.and_(*parts)

    def describe(self) -> str:
        """A readable rendering: operator name plus the qualifier valuation.

        Used when counterexample traces are surfaced in verification failure
        messages, e.g. ``insert((x == el), not (mem el))``.
        """
        parts = [
            f"{lit!r}" if value else f"not {lit!r}" for lit, value in self.literal_values
        ]
        valuation = ", ".join(parts) if parts else "any arguments"
        return f"{self.signature.name}({valuation})"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        bits = ", ".join(
            f"{'+' if value else '-'}{lit!r}" for lit, value in self.literal_values
        )
        return f"⟨{self.signature.name} | {bits or '⊤'}⟩"


class Alphabet(Record):
    """A finite alphabet valid under one context case."""

    __slots__ = ("context_case", "characters")

    def __init__(
        self,
        context_case: tuple[tuple[Term, bool], ...],
        characters: tuple[Character, ...],
    ) -> None:
        self.context_case = context_case
        self.characters = characters

    def context_truth(self) -> dict[Term, bool]:
        return dict(self.context_case)

    def context_formula(self) -> Term:
        parts = [lit if value else smt.not_(lit) for lit, value in self.context_case]
        return smt.and_(*parts)

    def __len__(self) -> int:
        return len(self.characters)


class AlphabetStats(StatsTable):
    """Bookkeeping for the evaluation tables: the counters of one construction."""

    context_cases: int = 0
    minterm_candidates: int = 0
    satisfiable_minterms: int = 0


def _signed_combinations(literals: Sequence[Term]) -> Iterable[tuple[tuple[Term, bool], ...]]:
    if not literals:
        yield ()
        return
    for bits in itertools.product((True, False), repeat=len(literals)):
        yield tuple(zip(literals, bits))


def build_alphabets(
    solver: smt.Solver,
    hypotheses: Sequence[Term],
    formulas: Sequence[Sfa],
    operators: OperatorRegistry,
    *,
    max_literals: Optional[int] = None,
    filter_unsat: bool = True,
    stats: Optional[AlphabetStats] = None,
) -> list[Alphabet]:
    """Build one finite alphabet per satisfiable context case.

    ``hypotheses`` are the typing-context facts Γ (already instantiated);
    they are conjoined to every satisfiability query but, unlike the context
    literals of the automata, are not case-split (an optimisation over the
    literal reading of Algorithm 1 that preserves completeness because a
    hypothesis has a fixed truth value in every model of Γ).

    ``filter_unsat=False`` disables minterm pruning altogether; it exists for
    the ablation benchmark showing why Algorithm 1's satisfiability filter
    matters.

    ``max_literals=None`` picks the default budget: the guided enumerator
    affords :data:`DEFAULT_MAX_LITERALS`, while the unfiltered path (which
    genuinely pays 2^n characters) keeps the conservative
    :data:`EXHAUSTIVE_MAX_LITERALS`.
    """
    literal_sets = collect_literals(formulas, operators)
    with trace.span("alphabet.build", cat="alphabet"):
        return enumerate_alphabets(
            solver,
            hypotheses,
            literal_sets,
            operators,
            max_literals=max_literals,
            filter_unsat=filter_unsat,
            stats=stats,
        )


def enumerate_alphabets(
    solver: smt.Solver,
    hypotheses: Sequence[Term],
    literal_sets: LiteralSets,
    operators: OperatorRegistry,
    *,
    max_literals: Optional[int] = None,
    filter_unsat: bool = True,
    stats: Optional[AlphabetStats] = None,
) -> list[Alphabet]:
    """The enumeration core of :func:`build_alphabets`, from collected literals.

    The entry point the differential suite swaps for its per-candidate
    reference (``tests/sfa/oracles.use_exhaustive_enumeration``).  On a fresh
    solver the resulting alphabets — and every counter this function touches —
    are a pure function of ``(hypotheses, literal_sets, operators, budget)``
    and the solver's axiom set; nothing here depends on the automata the
    literals came from.
    """
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
    alphabets: list[Alphabet] = []

    if not filter_unsat:
        context_cases: Iterable[tuple[tuple[Term, bool], ...]] = _signed_combinations(
            literal_sets.context_literals
        )
    else:
        # one incremental context over Γ and the union of the literals
        # serves every enumeration below
        solver.context(
            hypothesis_formula,
            [
                *literal_sets.context_literals,
                *(
                    lit
                    for signature in operators
                    for lit in literal_sets.event_literals.get(signature.name, ())
                ),
            ],
        )
        context_cases = solver.enumerate_models(
            literal_sets.context_literals, base=hypothesis_formula
        )

    for context_case in context_cases:
        stats.context_cases += 1

        characters: list[Character] = []
        for signature in operators:
            literals = literal_sets.event_literals.get(signature.name, ())
            if not filter_unsat:
                assignments: Iterable[tuple[tuple[Term, bool], ...]] = _signed_combinations(
                    literals
                )
            else:
                assignments = solver.enumerate_models(
                    literals, base=hypothesis_formula, case=context_case
                )
                stats.minterm_candidates += 1 << len(literals)
            for assignment in assignments:
                if not filter_unsat:
                    stats.minterm_candidates += 1
                stats.satisfiable_minterms += 1
                characters.append(Character(signature, assignment))
        alphabets.append(Alphabet(context_case=context_case, characters=tuple(characters)))

    return alphabets
