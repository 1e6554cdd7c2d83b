"""Theory combination for the lazy SMT loop.

A candidate boolean model from the SAT core induces a conjunction of theory
literals.  This module checks that conjunction against the combination of
EUF (congruence closure) and linear integer arithmetic, with a light-weight
Nelson–Oppen style propagation of EUF-implied equalities between Int-sorted
terms into the arithmetic solver.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..record import Record
from . import euf, terms
from .euf import CongruenceClosure
from .terms import Term


class TheoryResult(Record):
    __slots__ = ("consistent", "conflict")

    def __init__(self, consistent: bool, conflict: list[tuple[Term, bool]]) -> None:
        self.consistent = consistent
        #: literals explaining the conflict (a subset of those passed in);
        #: empty when consistent.
        self.conflict = conflict


#: the arithmetic atoms are the order comparisons plus Int-sorted equalities
_ORDER_KINDS = (terms.LT, terms.LE)


def _is_euf_atom(atom: Term) -> bool:
    if atom.kind == terms.EQ:
        return True
    if atom.kind == terms.APP and atom.sort.is_bool:
        return True
    if atom.kind == terms.VAR and atom.sort.is_bool:
        return True
    return False


def check_theory(
    literals: Iterable[tuple[Term, bool]],
    closure: Optional[CongruenceClosure] = None,
) -> TheoryResult:
    """Check a conjunction of literals for EUF + LIA consistency.

    ``closure`` is the backtrackable congruence closure of the caller's
    earlier checks (see :func:`repro.smt.euf.check_euf`); the EUF part
    asserts only the literals after the prefix it already holds.
    """
    literal_list = list(literals)

    # check_euf skips the atoms outside EUF itself, and explains a conflict
    # by the literals on the proof path of its clash, in input order
    euf_result = euf.check_euf(literal_list, closure)
    if not euf_result.consistent:
        return TheoryResult(consistent=False, conflict=euf_result.conflict)

    # inline rather than a predicate call: this scan runs on every
    # EUF-consistent check
    arith_literals = [
        literal
        for literal in literal_list
        if literal[0].kind in _ORDER_KINDS
        or (literal[0].kind == terms.EQ and literal[0].children[0].sort is terms.INT)
    ]
    if arith_literals:
        # loaded on the first arithmetic literal: most queries have none
        from . import arith

        euf_literals = [(a, v) for a, v in literal_list if _is_euf_atom(a)]
        shared_terms = [
            node
            for atom, _ in arith_literals
            for node in atom.walk()
            if node.sort.is_int and node.kind in (terms.APP, terms.VAR)
        ]
        shared = euf.implied_int_equalities(euf_literals, extra_terms=shared_terms)
        if not arith.check_arith(arith_literals, extra_equalities=shared):
            # conflict explanation: the arithmetic literals plus the equalities
            # that fed them (we conservatively include the EUF equalities).
            conflict = arith_literals + [
                (a, v) for a, v in euf_literals if a.kind == terms.EQ and v
            ]
            return TheoryResult(consistent=False, conflict=conflict)

    return TheoryResult(consistent=True, conflict=[])
