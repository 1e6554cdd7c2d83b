"""The coarse EUF check, kept as the verdict oracle of the explaining closure.

This is ``repro.smt.euf`` before its proof-producing closure: a union-find
whose ``propagate`` rescans every application for congruent pairs until a
fixpoint, and a ``check_euf`` that blames a conflict on every EUF literal it
was given.  Its verdicts are the reference for ``tests/smt/test_euf_explain.py``;
it never explains anything finer than the whole input.
"""

from __future__ import annotations

from typing import Iterable

from repro.smt import terms
from repro.smt.euf import EufResult
from repro.smt.terms import Term


class RescanningClosure:
    """A union-find based congruence closure that rescans to a fixpoint."""

    def __init__(self) -> None:
        self._parent: dict[Term, Term] = {}
        self._terms: list[Term] = []
        self._disequalities: list[tuple[Term, Term]] = []

    def _add_term(self, term: Term) -> None:
        if term in self._parent:
            return
        self._parent[term] = term
        self._terms.append(term)
        for child in term.children:
            self._add_term(child)

    def find(self, term: Term) -> Term:
        self._add_term(term)
        root = term
        while self._parent[root] is not root:
            root = self._parent[root]
        node = term
        while self._parent[node] is not node:
            self._parent[node], node = root, self._parent[node]
        return root

    def assert_equal(self, lhs: Term, rhs: Term) -> None:
        lhs_root, rhs_root = self.find(lhs), self.find(rhs)
        if lhs_root is not rhs_root:
            self._parent[lhs_root] = rhs_root

    def assert_distinct(self, lhs: Term, rhs: Term) -> None:
        self._add_term(lhs)
        self._add_term(rhs)
        self._disequalities.append((lhs, rhs))

    def propagate(self) -> None:
        """Merge congruent applications until a fixpoint is reached."""
        changed = True
        while changed:
            changed = False
            signature: dict[tuple, Term] = {}
            for app in [t for t in self._terms if t.kind == terms.APP]:
                sig = (app.payload, tuple(self.find(c) for c in app.children))
                other = signature.get(sig)
                if other is None:
                    signature[sig] = app
                elif self.find(other) is not self.find(app):
                    self.assert_equal(other, app)
                    changed = True

    def is_consistent(self) -> bool:
        self.propagate()
        for lhs, rhs in self._disequalities:
            if self.find(lhs) is self.find(rhs):
                return False
        constants: dict[Term, Term] = {}
        for term in self._terms:
            if term.kind in (terms.INT_CONST, terms.DATA_CONST, terms.BOOL_CONST):
                root = self.find(term)
                other = constants.get(root)
                if other is None:
                    constants[root] = term
                elif (other.kind, other.payload) != (term.kind, term.payload):
                    return False
        return True


def oracle_check_euf(literals: Iterable[tuple[Term, bool]]) -> EufResult:
    """Decide a conjunction of EUF literals; a conflict is every EUF literal."""
    closure = RescanningClosure()
    used: list[tuple[Term, bool]] = []
    for atom, value in literals:
        if atom.kind == terms.EQ:
            lhs, rhs = atom.children
            used.append((atom, value))
            if value:
                closure.assert_equal(lhs, rhs)
            else:
                closure.assert_distinct(lhs, rhs)
        elif atom.kind in (terms.APP, terms.VAR) and atom.sort.is_bool:
            used.append((atom, value))
            closure.assert_equal(atom, terms.TRUE if value else terms.FALSE)
    closure.assert_distinct(terms.TRUE, terms.FALSE)
    if closure.is_consistent():
        return EufResult(consistent=True, conflict=[])
    return EufResult(consistent=False, conflict=used)
