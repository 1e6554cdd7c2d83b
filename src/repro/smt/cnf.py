"""Tseitin-style CNF conversion.

Converts an arbitrary quantifier-free boolean combination of atoms into an
equisatisfiable set of clauses over integer propositional variables.  Atoms
are mapped to positive variables; auxiliary (Tseitin) variables are introduced
for internal connectives so the clause count stays linear in the formula size.
"""

from __future__ import annotations

from . import terms
from .terms import Term

Clause = tuple[int, ...]


class CnfBuilder:
    """Incremental Tseitin converter.

    A single builder may be used to convert several formulas that share atoms,
    which is how the lazy SMT loop adds theory-conflict blocking clauses.
    """

    def __init__(self) -> None:
        self._var_of_atom: dict[Term, int] = {}
        self._atom_of_var: dict[int, Term] = {}
        self._aux_of_term: dict[Term, int] = {}
        self._next_var = 1
        self.clauses: list[Clause] = []

    # -- variable management ---------------------------------------------------
    def _fresh_var(self) -> int:
        v = self._next_var
        self._next_var += 1
        return v

    def var_for_atom(self, atom: Term) -> int:
        existing = self._var_of_atom.get(atom)
        if existing is not None:
            return existing
        v = self._fresh_var()
        self._var_of_atom[atom] = v
        self._atom_of_var[v] = atom
        return v

    @property
    def num_vars(self) -> int:
        return self._next_var - 1

    @property
    def atom_of_var(self) -> dict[int, Term]:
        return self._atom_of_var

    @property
    def var_of_atom(self) -> dict[Term, int]:
        return self._var_of_atom

    # -- clause emission ---------------------------------------------------------
    def add_clause(self, clause: Clause) -> None:
        self.clauses.append(tuple(clause))

    def assert_formula(self, formula: Term) -> None:
        """Add clauses forcing ``formula`` to be true."""
        lit = self._encode(formula)
        if lit is not None:
            self.add_clause((lit,))

    def assert_literal_true(self, atom: Term, value: bool) -> None:
        v = self.var_for_atom(atom)
        self.add_clause((v if value else -v,))

    def block_assignment(self, literals: list[tuple[Term, bool]]) -> None:
        """Add a clause forbidding the given conjunction of atom values."""
        clause = []
        for atom, value in literals:
            v = self.var_for_atom(atom)
            clause.append(-v if value else v)
        self.add_clause(tuple(clause))

    # -- Tseitin encoding --------------------------------------------------------
    def _encode(self, formula: Term) -> int | None:
        """Return a literal equivalent to ``formula`` (or None for TRUE).

        Raises ``Unsatisfiable`` conditions by returning a literal that is
        forced false (via a unit clause) for the FALSE constant.
        """
        if formula.is_true:
            return None
        if formula.is_false:
            v = self._fresh_var()
            self.add_clause((-v,))
            return v
        if terms.is_atom(formula):
            return self.var_for_atom(formula)
        if formula.kind == terms.NOT:
            inner = self._encode(formula.children[0])
            if inner is None:  # not true == false
                v = self._fresh_var()
                self.add_clause((-v,))
                return v
            return -inner

        cached = self._aux_of_term.get(formula)
        if cached is not None:
            return cached

        if formula.kind == terms.AND:
            lits = [self._encode(c) for c in formula.children]
            lits = [l for l in lits if l is not None]
            out = self._fresh_var()
            for l in lits:
                self.add_clause((-out, l))
            self.add_clause(tuple([out] + [-l for l in lits]))
        elif formula.kind == terms.OR:
            lits = [self._encode(c) for c in formula.children]
            concrete = [l for l in lits if l is not None]
            out = self._fresh_var()
            if len(concrete) != len(lits):
                # one disjunct is TRUE
                self.add_clause((out,))
            else:
                for l in concrete:
                    self.add_clause((out, -l))
                self.add_clause(tuple([-out] + concrete))
        elif formula.kind == terms.IMPLIES:
            return self._encode(terms.or_(terms.not_(formula.children[0]), formula.children[1]))
        elif formula.kind == terms.IFF:
            a = self._encode(formula.children[0])
            b = self._encode(formula.children[1])
            out = self._fresh_var()
            if a is None and b is None:
                self.add_clause((out,))
            elif a is None:
                assert b is not None
                self.add_clause((-out, b))
                self.add_clause((out, -b))
            elif b is None:
                self.add_clause((-out, a))
                self.add_clause((out, -a))
            else:
                self.add_clause((-out, -a, b))
                self.add_clause((-out, a, -b))
                self.add_clause((out, a, b))
                self.add_clause((out, -a, -b))
        else:
            raise ValueError(f"cannot CNF-encode term of kind {formula.kind}")

        self._aux_of_term[formula] = out
        return out
